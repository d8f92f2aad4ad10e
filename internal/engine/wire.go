package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/dataset"
)

// wirePattern is one pattern in a Report's canonical wire encoding:
// items and memoized support, no TID payload. TID sets are a single-node
// acceleration structure, not part of the observable answer, so the
// distributed layer's byte-identity guarantee is pinned at this
// boundary.
type wirePattern struct {
	Items   []int `json:"items"`
	Support int   `json:"support"`
}

// wireReport is the canonical serializable form of a Report. It carries
// every field the determinism conformance tests observe, in a fixed
// order, so that EncodeReport's bytes (and their sha256) are a pure
// function of the Report's observable content.
type wireReport struct {
	Algorithm    string        `json:"algorithm"`
	Patterns     []wirePattern `json:"patterns"`
	InitPoolSize int           `json:"init_pool_size"`
	Iterations   int           `json:"iterations"`
	Visited      int           `json:"visited"`
	Stopped      bool          `json:"stopped"`
	Warnings     []string      `json:"warnings"`
	// Quality is omitted when the algorithm reports none, so the
	// encodings (and hashes) of the quality-less miners are unchanged.
	Quality *Quality `json:"quality,omitempty"`
}

// EncodeReport renders a Report to canonical JSON bytes. Two Reports
// with the same observable content encode identically; this is the
// byte-identity boundary the distributed merge is held to, and the
// format of the job server's result files.
func EncodeReport(rep *Report) []byte {
	w := wireReport{
		Algorithm:    rep.Algorithm,
		Patterns:     make([]wirePattern, len(rep.Patterns)),
		InitPoolSize: rep.InitPoolSize,
		Iterations:   rep.Iterations,
		Visited:      rep.Visited,
		Stopped:      rep.Stopped,
		Warnings:     rep.Warnings,
		Quality:      rep.Quality,
	}
	for i, p := range rep.Patterns {
		w.Patterns[i] = wirePattern{Items: p.Items, Support: p.Support()}
	}
	b, err := json.Marshal(w)
	if err != nil {
		// Only unmarshalable values can fail here; wireReport has none.
		panic("engine: encoding report: " + err.Error())
	}
	return b
}

// DecodeReport parses a Report from its canonical encoding, or from any
// JSON object with those fields (unknown keys are ignored, absent ones
// are zero). Patterns carry memoized supports but nil TID sets,
// matching what horizontal miners (fpgrowth) produce natively. A
// negative support, or one too large to memoize, is an error.
func DecodeReport(b []byte) (*Report, error) {
	var w wireReport
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, err
	}
	rep := &Report{
		Algorithm:    w.Algorithm,
		InitPoolSize: w.InitPoolSize,
		Iterations:   w.Iterations,
		Visited:      w.Visited,
		Stopped:      w.Stopped,
		Warnings:     w.Warnings,
		Quality:      w.Quality,
	}
	if len(w.Patterns) > 0 {
		rep.Patterns = make([]*dataset.Pattern, len(w.Patterns))
		for i, p := range w.Patterns {
			if p.Support < 0 || p.Support == math.MaxInt {
				return nil, fmt.Errorf("engine: decoding report: pattern %d has support %d", i, p.Support)
			}
			rep.Patterns[i] = dataset.NewPatternCounted(p.Items, nil, p.Support)
		}
	}
	return rep, nil
}

// ReportHash returns the hex sha256 of a Report's canonical encoding.
func ReportHash(rep *Report) string {
	sum := sha256.Sum256(EncodeReport(rep))
	return hex.EncodeToString(sum[:])
}
