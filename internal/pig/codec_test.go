package pig_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"spongefiles/internal/mapreduce"
	"spongefiles/internal/pig"
	"spongefiles/internal/workload"
)

// corpusRecords returns copies of the first n records of split 0 of the
// default web corpus at scale 64.
func corpusRecords(n int) [][]byte {
	w := workload.DefaultWebCorpus(64)
	var recs [][]byte
	w.Input("/web", 64).MakeRecords(0)(func(k, v []byte) {
		if len(recs) < n {
			recs = append(recs, append([]byte(nil), v...))
		}
	})
	return recs
}

// hostile are malformed encodings the checked decoder must reject.
func hostile() map[string][]byte {
	deep := bytes.Repeat([]byte{4, 1}, 200)
	deep = append(deep, 4, 0)
	return map[string][]byte{
		"empty":              {},
		"not a tuple":        pig.AppendValue(nil, "x"),
		"huge slot count":    binary.AppendUvarint([]byte{4}, 1<<40),
		"huge string length": append([]byte{4, 1, 1}, binary.AppendUvarint(nil, 1<<62)...),
		"count past end":     {4, 3, 1, 0},
		"truncated number":   {4, 1, 2, 1, 2, 3},
		"truncated varint":   {4, 0x80},
		"overlong varint":    {4, 1, 1, 0x80, 0x00},
		"varint overflow":    append([]byte{4}, bytes.Repeat([]byte{0xff}, 11)...),
		"bad tag":            {4, 1, 9},
		"trailing bytes":     {4, 0, 0},
		"nested too deep":    deep,
	}
}

func TestDecodeTupleRejectsHostileInput(t *testing.T) {
	for name, data := range hostile() {
		if tu, err := pig.DecodeTupleChecked(data); err == nil {
			t.Errorf("%s: decoded %v, want an error", name, tu)
		}
		func() {
			defer func() {
				if _, ok := recover().(error); !ok {
					t.Errorf("%s: DecodeTuple must panic with the decode error", name)
				}
			}()
			pig.DecodeTuple(data)
		}()
	}
}

// FuzzDecodeTuple checks that the checked decoder never panics and that
// whatever it accepts re-encodes to exactly its input — the canonical
// encoding the unprojected map's pass-through relies on.
func FuzzDecodeTuple(f *testing.F) {
	for _, rec := range corpusRecords(8) {
		f.Add(rec)
	}
	f.Add(pig.AppendTuple(nil, pig.Tuple{
		"url-string", int64(-42), 3.25,
		pig.Tuple{"nested", int64(7), pig.Tuple{"deep"}},
	}))
	f.Add(pig.AppendTuple(nil, pig.Tuple{}))
	for _, data := range hostile() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tu, err := pig.DecodeTupleChecked(data)
		if err != nil {
			return
		}
		if got := pig.AppendTuple(nil, tu); !bytes.Equal(got, data) {
			t.Fatalf("accepted %x but it re-encodes to %x", data, got)
		}
	})
}

func TestDecodeTupleSharedBackingIsIsolated(t *testing.T) {
	in := pig.Tuple{"a", pig.Tuple{"b", int64(2)}, "c"}
	data := pig.AppendTuple(nil, in)
	out := pig.DecodeTuple(data)
	for i := range data {
		data[i] = 0 // the decoded tuple must not alias its input
	}
	// Appending to a decoded tuple must not clobber the slots carved
	// after it from the shared backing (here, the nested tuple's).
	grown := append(out, "x")
	if out.String(2) != "c" || out.Nested(1).String(0) != "b" || grown[3] != "x" {
		t.Fatalf("decoded tuple corrupted: %v", out)
	}
}

// spamQuery is the unprojected spam-quantiles plan over the corpus.
func spamQuery() *pig.GroupQuery {
	return &pig.GroupQuery{
		Name:     "spam",
		GroupKey: func(t pig.Tuple) string { return t.String(1) },
		SortKey:  func(t pig.Tuple) pig.Value { return t.Float(3) },
		UDF:      pig.Quantiles(3, 10),
	}
}

func TestUnprojectedMapEmitsRecordBytes(t *testing.T) {
	conf := spamQuery().Compile(1<<30, nil)
	for i, rec := range corpusRecords(200) {
		var gotK, gotV []byte
		conf.Map(nil, nil, rec, func(k, v []byte) { gotK, gotV = k, v })
		want := pig.AppendTuple(nil, pig.DecodeTuple(rec))
		if !bytes.Equal(gotV, want) || !bytes.Equal(gotV, rec) {
			t.Fatalf("record %d: map emitted %d bytes, want the %d re-encoded bytes", i, len(gotV), len(want))
		}
		if string(gotK) != pig.DecodeTuple(rec).String(1) {
			t.Fatalf("record %d: key %q", i, gotK)
		}
	}
}

func TestUnprojectedMapAllocationFreeBeyondDecode(t *testing.T) {
	conf := spamQuery().Compile(1<<30, nil)
	rec := corpusRecords(1)[0]
	var emit mapreduce.Emit = func(k, v []byte) {}
	decode := testing.AllocsPerRun(200, func() { pig.DecodeTuple(rec) })
	mapped := testing.AllocsPerRun(200, func() { conf.Map(nil, nil, rec, emit) })
	if mapped != decode {
		t.Fatalf("unprojected map: %.0f allocs/record, DecodeTuple alone %.0f", mapped, decode)
	}
}

// decodeAllocCeiling is DecodeTuple's allocation count on one corpus
// record: the string copy, the shared slot backing, and one box per
// field that is not a small integer (12 strings, 1 float, 1 nested
// tuple). Field-by-field decoding made 27.
const decodeAllocCeiling = 16

func TestDecodeTupleAllocCeiling(t *testing.T) {
	rec := corpusRecords(1)[0]
	if a := testing.AllocsPerRun(200, func() { pig.DecodeTuple(rec) }); a > decodeAllocCeiling {
		t.Fatalf("DecodeTuple on a corpus record: %.0f allocs, ceiling %d", a, decodeAllocCeiling)
	}
}
