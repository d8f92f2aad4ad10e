package ingest

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// fuzzRoundTrip asserts the parser contract on arbitrary input: decoding
// never panics, and any input that decodes successfully survives a
// decode→encode→decode round trip with an equal dataset.
func fuzzRoundTrip(t *testing.T, data []byte, format func() Format) {
	f1 := format()
	res, err := FromBytes("fuzz-input", data, Options{Format: f1, MaxItem: 1 << 16})
	if err != nil {
		return // rejected input is fine; panicking or succeeding wrongly is not
	}
	var buf bytes.Buffer
	if err := f1.Encode(&buf, res.Dataset); err != nil {
		t.Fatalf("encode of a decoded dataset failed: %v", err)
	}
	res2, err := FromBytes("fuzz-round-trip", buf.Bytes(), Options{Format: format(), MaxItem: 1 << 16})
	if err != nil {
		t.Fatalf("re-decode of encoded dataset failed: %v\nencoded:\n%q", err, buf.Bytes())
	}
	if !datasetsEqual(res.Dataset, res2.Dataset) {
		t.Fatalf("round trip changed the dataset\ninput: %q\nencoded: %q", data, buf.Bytes())
	}
}

func FuzzReadFIMI(f *testing.F) {
	f.Add([]byte("1 2 3\n"))
	f.Add([]byte("# comment\n\n0\n5 5 5\n"))
	f.Add([]byte("10 2\n\n\n7\n"))
	f.Add([]byte("001 1\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip(t, data, FIMI)
	})
}

func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("milk,bread\nbread\n"))
	f.Add([]byte("# c\na, b ,,c\n\n"))
	f.Add([]byte("x,#y\nz,#y\n"))
	f.Add([]byte("a\r\nb,a\r\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip(t, data, func() Format { return NewCSV() })
	})
}

// FuzzReadSeq asserts the parser contract for the sequence format: same
// line grammar as FIMI, but the round trip must also preserve event
// order and repeats — datasetsEqual compares the attached ordered views,
// so a decoder that canonicalized rows would fail here.
func FuzzReadSeq(f *testing.F) {
	f.Add([]byte("2 1 2\n"))
	f.Add([]byte("# comment\n\n0\n5 5 5\n"))
	f.Add([]byte("10 2\n\n\n7\n"))
	f.Add([]byte("3 1\n1 3\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip(t, data, Seq)
	})
}

// FuzzAppendChunk asserts the Appender contract on arbitrary base+chunk
// bytes: an accepted append is indistinguishable from re-ingesting the
// concatenated bytes, and a rejected append leaves the appender exactly
// at the base state (atomicity — including CSV symbol-table rollback).
func FuzzAppendChunk(f *testing.F) {
	f.Add([]byte("0 1\n2\n"), []byte("1 2\n"), uint8(0))
	f.Add([]byte("a,b\n"), []byte("b,c\nd\n"), uint8(1))
	f.Add([]byte("011\n"), []byte("101\n"), uint8(2))
	f.Add([]byte("0 1"), []byte("2\n"), uint8(0))      // mid-line base
	f.Add([]byte("0\n"), []byte("\x1f\x8b"), uint8(0)) // gzip-magic chunk
	f.Add([]byte(""), []byte("5 6\n"), uint8(0))
	f.Add([]byte("2 1\n"), []byte("1 2 1\n"), uint8(3)) // ordered rows
	f.Fuzz(func(t *testing.T, base, chunk []byte, sel uint8) {
		mk := []func() Format{FIMI, func() Format { return NewCSV() }, Matrix, Seq}[sel%4]
		opts := func() Options { return Options{Format: mk(), MaxItem: 1 << 16} }
		app, err := NewAppender(BytesSource("fuzz-append", base), opts())
		if err != nil {
			return
		}
		snap, err := app.Append(chunk)
		if err != nil {
			want, werr := FromBytes("fuzz-append", base, opts())
			if werr != nil {
				t.Fatalf("base re-ingest failed after rejected append: %v", werr)
			}
			requireIdentical(t, app.Result(), want)
			return
		}
		all := append(append([]byte(nil), base...), chunk...)
		want, err := FromBytes("fuzz-append", all, opts())
		if err != nil {
			t.Fatalf("append accepted a chunk the re-ingest rejects: %v\nbase %q chunk %q", err, base, chunk)
		}
		requireIdentical(t, snap, want)
	})
}

// FuzzFIMIMatchesRead differentially tests the streaming FIMI and seq
// decoders against dataset.Read, the reference parser: on the same bytes
// all three accept or reject together, rejections carry the same error
// text, and accepted inputs give the same rows. The seeds cover the
// grammar corners the in-place tokenizer must hand to, or mirror,
// strings.Fields and strconv.Atoi: Unicode separators, signs and leading
// zeros, overflow, CRLF, \v and \f, indented comments and a '#' inside
// a row.
func FuzzFIMIMatchesRead(f *testing.F) {
	for _, seed := range []string{
		"1\u00a02\n", "3\u00855\n", "4\u30007 7\n",
		"+3 -0 007\n",
		"0000000000000000042\n", "12345678901234567890\n",
		"1 2\r\n3\r\n",
		"1\v2\f3\n",
		"   # comment\n1\n", "\u00a0# comment\n1\n",
		"1 #2\n",
		"-1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// dataset.Read sizes per-item state by the largest ID: keep the
		// universe small so the reference parser cannot exhaust memory.
		for _, tok := range strings.Fields(string(data)) {
			if v, err := strconv.Atoi(tok); err == nil && v > 1<<16 {
				t.Skip()
			}
		}
		want, werr := dataset.Read(bytes.NewReader(data))
		for _, format := range []func() Format{FIMI, Seq} {
			res, err := FromBytes("fuzz-input", data, Options{Format: format()})
			if (err == nil) != (werr == nil) {
				t.Fatalf("%s: err = %v, dataset.Read err = %v\ninput %q", format().Name(), err, werr, data)
			}
			if err != nil {
				got := strings.TrimPrefix(err.Error(), "ingest: fuzz-input: ")
				if ref := strings.TrimPrefix(werr.Error(), "dataset: "); got != ref {
					t.Fatalf("%s: error %q, dataset.Read %q\ninput %q", format().Name(), got, ref, data)
				}
				continue
			}
			if res.Dataset.Size() != want.Size() || res.Dataset.NumItems() != want.NumItems() {
				t.Fatalf("%s: shape %dx%d, dataset.Read %dx%d\ninput %q", format().Name(),
					res.Dataset.Size(), res.Dataset.NumItems(), want.Size(), want.NumItems(), data)
			}
			for tid := 0; tid < want.Size(); tid++ {
				if g, w := res.Dataset.Transaction(tid), want.Transaction(tid); !g.Equal(w) {
					t.Fatalf("%s: row %d = %v, dataset.Read %v\ninput %q", format().Name(), tid, g, w, data)
				}
			}
		}
	})
}
