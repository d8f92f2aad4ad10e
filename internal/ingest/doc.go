// Package ingest is the dataset ingestion subsystem: it turns external
// files — FIMI transaction lists, CSV/basket files with string item names,
// dense binary matrices, any of them gzip-compressed — into the immutable
// *dataset.Dataset the mining engine operates on.
//
// The pipeline has three stages, all streaming:
//
//  1. A Format decodes the byte stream row by row (gzip is detected by
//     magic bytes and unwrapped transparently; the format itself is
//     sniffed from the file extension or content when not forced). The
//     decoders parse each line in place in the scanner's buffer, so a
//     row of ASCII item IDs or already-seen symbols costs no allocation.
//  2. A chain of Transforms filters rows and items deterministically:
//     row sampling driven by a pure rng.Stream, horizontal row-range and
//     vertical item-range sharding, and minimum-item-support pruning.
//  3. A two-pass builder assembles the dataset: pass one counts item
//     frequencies over the kept rows, pass two emits canonical
//     transactions and per-item tidset.Set columns directly — the raw
//     [][]int intermediate of dataset.New is never materialized. The
//     kept frequencies sum to the number of canonical items, so every
//     transaction is a cap-clipped slice of one shared array.
//
// With Options.Remap the surviving items are renumbered in decreasing
// frequency order (ties by source ID); Result.Mapping records the
// renumbering and RemapReport translates a mining report back to source
// IDs, so remapped and plain ingestion are interchangeable end to end.
//
// The same pipeline backs the pfmine/pfexp/pfgen CLI flags (see Flags)
// and pfserve's dataset catalog.
package ingest
