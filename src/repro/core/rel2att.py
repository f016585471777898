"""Relation-to-Attention (Rel2Att) modules — the paper's key component.

Each module (Section 3.2, Figure 2b) projects the image sequence ``V``
and query sequence ``T`` through four two-layer FFNs, concatenates the
projections into fused matrices ``X1``/``X2``, forms the dense relation
map ``R = X1 X2^T / sqrt(d_rel)`` whose four blocks are the image/query
self-attentions (R_vv, R_tt) and co-attentions (R_vt, R_tv), averages
``R`` over each axis into two k-vectors, sums them into a joint
attention vector, and re-weights both input sequences element-wise.

Padding-aware masking excludes PAD query positions from the relation
averages.  The ablation switches of Table 4 wipe the self- or
co-attention blocks of ``R`` before the averages are taken.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor, concatenate
from repro.core.config import YolloConfig
from repro.nn import FeedForward, Module, Parameter, Sequential
from repro.obs import trace_span


def _relation_weight_mask(
    batch: int,
    num_regions: int,
    num_tokens: int,
    token_mask: Optional[np.ndarray],
    use_self_attention: bool,
    use_co_attention: bool,
) -> np.ndarray:
    """Build the ``(B, k, k)`` 0/1 weights applied to the relation map.

    Combines the Table-4 ablation wiping with PAD masking: a relation
    entry survives only if both of its endpoints are valid positions and
    its block is enabled.
    """
    k = num_regions + num_tokens
    valid = np.ones((batch, k))
    if token_mask is not None:
        valid[:, num_regions:] = token_mask
    weights = valid[:, :, None] * valid[:, None, :]

    block = np.ones((k, k))
    if not use_self_attention:
        block[:num_regions, :num_regions] = 0.0
        block[num_regions:, num_regions:] = 0.0
    if not use_co_attention:
        block[:num_regions, num_regions:] = 0.0
        block[num_regions:, :num_regions] = 0.0
    return weights * block[None]


def _attention_normalizers(
    weights: np.ndarray, num_regions: int, balanced: bool
) -> Tuple[np.ndarray, ...]:
    """Divisor arrays for the relation-map averages.

    ``balanced`` returns the four per-block divisors (image/query columns
    then rows); otherwise the two whole-axis divisors.  Kept as one plain
    numpy function (rather than inline expressions) so the graph tracer
    can capture the token-mask-dependent normalisers as a single node.
    """
    m = num_regions
    if balanced:
        return (
            np.maximum(weights[:, :m, :].sum(axis=1), 1.0),
            np.maximum(weights[:, m:, :].sum(axis=1), 1.0),
            np.maximum(weights[:, :, :m].sum(axis=2), 1.0),
            np.maximum(weights[:, :, m:].sum(axis=2), 1.0),
        )
    return (
        np.maximum(weights.sum(axis=1), 1.0),
        np.maximum(weights.sum(axis=2), 1.0),
    )


def _clause_arrays(
    clause_masks: np.ndarray, token_mask: Optional[np.ndarray], num_tokens: int
) -> Tuple[np.ndarray, ...]:
    """Every numpy array the clause-conditioned pooling derives from masks.

    For ``C`` clauses returns a flat tuple: ``C`` per-clause token rows
    ``(B, n)`` (clause mask times the PAD mask), ``C`` active flags
    ``(B, 1)``, then the image-side divisor ``(B, 1)`` (active clause
    count), the text-side divisor ``(B, n)`` (per-token coverage), the
    ``>= 2``-active-clause gate ``(B, 1)`` and its complement.  Kept as
    one plain numpy function so the graph tracer records the masks as a
    run-time input of a single node: flat, so every leaf gets its own
    ``tuple_get``.
    """
    batch, num_clauses = clause_masks.shape[:2]
    base_mask = token_mask if token_mask is not None \
        else np.ones((batch, num_tokens))
    rows = [clause_masks[:, index] * base_mask for index in range(num_clauses)]
    acts = [(row.sum(axis=1) > 0).astype(np.float64)[:, None] for row in rows]
    coverage = sum(rows, np.zeros((batch, num_tokens)))
    active = sum(acts, np.zeros((batch, 1)))
    conditioned = (active >= 2.0).astype(np.float64)
    return (*rows, *acts, np.maximum(active, 1.0),
            np.maximum(coverage, 1.0), conditioned, 1.0 - conditioned)


class Rel2AttModule(Module):
    """One Rel2Att block: relation map -> attention masks -> re-weighting."""

    def __init__(self, config: YolloConfig):
        super().__init__()
        self.config = config
        d, d_rel, hidden = config.d_model, config.d_rel, config.ffn_hidden
        # The four FFNs of Eq. (1)-(2): theta_1..theta_4.
        self.ffn_v1 = FeedForward(d, hidden, d_rel)
        self.ffn_v2 = FeedForward(d, hidden, d_rel)
        self.ffn_t1 = FeedForward(d, hidden, d_rel)
        self.ffn_t2 = FeedForward(d, hidden, d_rel)
        # Learnable gain on the attention vector.  The relation-map
        # averages are O(1/k) in magnitude, so without a gain the
        # softmax of Eq. (6) starts pathologically flat; the gain is a
        # pure reparameterisation (the FFN output scale could learn the
        # same factor, far more slowly).
        self.att_gain = Parameter(np.array(config.att_gain_init))

    def relation_map(self, image_seq: Tensor, query_seq: Tensor) -> Tensor:
        """Compute the raw dense relation map ``R`` (Eq. 3)."""
        x1 = concatenate([self.ffn_v1(image_seq), self.ffn_t1(query_seq)], axis=1)
        x2 = concatenate([self.ffn_v2(image_seq), self.ffn_t2(query_seq)], axis=1)
        return x1.matmul(x2.swapaxes(1, 2)) / np.sqrt(self.config.d_rel)

    def _attention_scores(self, relation: Tensor,
                          weights: np.ndarray, m: int) -> Tensor:
        """Joint attention vector ``(B, k)`` from the relation map."""
        masked = relation * Tensor(weights)
        normalizers = _attention_normalizers(
            weights, m, self.config.block_balanced_attention
        )
        if self.config.block_balanced_attention:
            # Average each block of R separately before summing, so the
            # co-attention blocks (n entries) carry the same weight as
            # the much larger self-attention blocks (m entries).  With a
            # plain mean over all k entries the query's contribution to
            # att_v is diluted by m/n ~ 15x and grounding barely
            # conditions on the language.
            att_cols = (
                masked[:, :m, :].sum(axis=1) / Tensor(normalizers[0])
                + masked[:, m:, :].sum(axis=1) / Tensor(normalizers[1])
            )
            att_rows = (
                masked[:, :, :m].sum(axis=2) / Tensor(normalizers[2])
                + masked[:, :, m:].sum(axis=2) / Tensor(normalizers[3])
            )
        else:
            # Strict Eq. (3)-(4) reading: plain masked means over each axis.
            att_cols = masked.sum(axis=1) / Tensor(normalizers[0])
            att_rows = masked.sum(axis=2) / Tensor(normalizers[1])
        return (att_cols + att_rows) * self.att_gain  # (B, k)

    def forward(
        self,
        image_seq: Tensor,
        query_seq: Tensor,
        token_mask: Optional[np.ndarray] = None,
        clause_masks: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Tensor, Tensor, Tensor]:
        """Return ``(V_attended, T_attended, att_v, att_t)``.

        ``att_v``/``att_t`` are the raw (pre-softmax) attention scores;
        the attended sequences are the element-wise products of Eq. (4)-(5).

        ``clause_masks`` — ``(B, C, n)`` 0/1 rows from
        :func:`repro.lang.clause_token_masks` — switches the block into
        clause-conditioned mode: the relation map is computed once, the
        attention averages are re-taken per clause over that clause's
        token subset, and the per-clause vectors are pooled (mean over
        active clauses on the image side; per-token normalised sum on
        the text side).  Samples whose rows are all zero take the flat
        average, bit-exact with ``clause_masks=None``.  No parameters
        are added, so the state-dict layout is unchanged.
        """
        batch, m = image_seq.shape[0], image_seq.shape[1]
        n = query_seq.shape[1]
        relation = self.relation_map(image_seq, query_seq)

        weights = _relation_weight_mask(
            batch, m, n, token_mask,
            self.config.use_self_attention, self.config.use_co_attention,
        )
        att = self._attention_scores(relation, weights, m)
        if clause_masks is not None:
            att = self._clause_conditioned(
                relation, att, token_mask, clause_masks, m, n)

        att_v = att[:, :m]
        att_t = att[:, m:]
        if token_mask is not None:
            att_t = att_t * Tensor(token_mask)

        # Re-weight with tanh-bounded attention: the raw logits are kept
        # for the mask loss, but unbounded multiplicative re-weighting
        # compounds exponentially through the stacked modules (features
        # scale by (1 + att) per module) and overflows float32.
        attended_v = image_seq * att_v.tanh().expand_dims(-1)
        attended_t = query_seq * att_t.tanh().expand_dims(-1)
        return attended_v, attended_t, att_v, att_t

    def _clause_conditioned(
        self,
        relation: Tensor,
        att_flat: Tensor,
        token_mask: Optional[np.ndarray],
        clause_masks: np.ndarray,
        m: int,
        n: int,
    ) -> Tensor:
        """Pool per-clause attention averages over the shared relation map.

        For each clause the flat averages are re-taken with the token
        axis restricted to that clause's tokens; the image-side vectors
        are averaged over a sample's active clauses and the text-side
        vectors summed with per-token normalisation (a token attended by
        two clauses is not double-counted).  Samples with fewer than two
        active clauses keep their flat attention unchanged.  Control
        flow depends only on the number of clauses, so a compiled plan
        replays this for any masks of the same shape.
        """
        batch, num_clauses = clause_masks.shape[:2]
        if num_clauses == 0:
            return att_flat
        arrays = _clause_arrays(clause_masks, token_mask, n)
        rows, acts = arrays[:num_clauses], arrays[num_clauses:2 * num_clauses]
        active_div, coverage_div, conditioned, unconditioned = \
            arrays[2 * num_clauses:]
        att_v_sum: Optional[Tensor] = None
        att_t_sum: Optional[Tensor] = None
        for row, act in zip(rows, acts):
            # An empty row yields exact zeros: its divisors clamp at 1.
            weights = _relation_weight_mask(
                batch, m, n, row,
                self.config.use_self_attention,
                self.config.use_co_attention,
            )
            att_c = self._attention_scores(relation, weights, m)
            term_v = att_c[:, :m] * Tensor(act)
            term_t = att_c[:, m:] * Tensor(row)
            att_v_sum = term_v if att_v_sum is None else att_v_sum + term_v
            att_t_sum = term_t if att_t_sum is None else att_t_sum + term_t
        att_v = att_v_sum / Tensor(active_div)
        att_t = att_t_sum / Tensor(coverage_div)
        att_clause = concatenate([att_v, att_t], axis=1)
        return (att_flat * Tensor(unconditioned)
                + att_clause * Tensor(conditioned))


class Rel2AttStack(Module):
    """Stack of Rel2Att modules with shortcut connections.

    Each module's attended outputs are added back to its inputs
    (residual propagation, Section 3.2) before feeding the next module.
    Returns the final image sequence plus the per-module raw attention
    masks used by the attention loss and visualisations.
    """

    def __init__(self, config: YolloConfig):
        super().__init__()
        self.config = config
        self.blocks = Sequential(*[Rel2AttModule(config) for _ in range(config.num_rel2att)])
        # Precomputed so the profiling-off path does no string formatting.
        self._span_names = [f"rel2att.block{i}" for i in range(config.num_rel2att)]

    def forward(
        self,
        image_seq: Tensor,
        query_seq: Tensor,
        token_mask: Optional[np.ndarray] = None,
        clause_masks: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, List[Tensor]]:
        attention_masks: List[Tensor] = []
        v, t = image_seq, query_seq
        for block, span_name in zip(self.blocks, self._span_names):
            with trace_span(span_name):
                attended_v, attended_t, att_v, _ = block(
                    v, t, token_mask, clause_masks)
                v = v + attended_v
                t = t + attended_t
            attention_masks.append(att_v)
        return v, attention_masks
