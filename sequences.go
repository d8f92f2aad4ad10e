package patternfusion

import (
	"repro/internal/seq"
	"repro/internal/seqfusion"
)

// The sequence extension (the paper's Section 8 future-work direction):
// Pattern-Fusion over subsequence patterns, with support-set closures
// computed by weighted-LCS folding. See internal/seq for the full design
// discussion. The miner is the "seqfusion" registry algorithm
// (MineWith(ctx, SeqFusion, d, opts)), which mines a dataset's attached
// ordered view (Dataset.SetSequences) — or its canonical transactions
// read as ascending sequences — over the dataset's own item columns, and
// reports the Δ quality estimate. Sequence carries the subsequence
// algebra (IsSubsequenceOf) for checking mined sequences against rows.

// SeqFusion is the registry name of the engine-integrated sequence miner.
const SeqFusion = seqfusion.Name

// Sequence is an ordered list of event IDs.
type Sequence = seq.Sequence

// LCS returns a longest common subsequence of a and b.
func LCS(a, b Sequence) Sequence { return seq.LCS(a, b) }
