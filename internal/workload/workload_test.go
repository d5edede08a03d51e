package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spongefiles/internal/media"
	"spongefiles/internal/pig"
)

func TestSkewnessKnownCases(t *testing.T) {
	// Symmetric data: skewness ≈ 0.
	sym := []float64{1, 2, 3, 4, 5, 6, 7}
	if s := Skewness(sym); math.Abs(s) > 1e-9 {
		t.Fatalf("symmetric skewness = %f", s)
	}
	// Right-tailed data: strongly positive.
	right := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 100}
	if s := Skewness(right); s < 1 {
		t.Fatalf("right-tailed skewness = %f, want > 1", s)
	}
	// Left-tailed: strongly negative.
	left := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 1}
	if s := Skewness(left); s > -1 {
		t.Fatalf("left-tailed skewness = %f, want < -1", s)
	}
	if Skewness([]float64{1, 2}) != 0 {
		t.Fatal("short input should give 0")
	}
	if Skewness([]float64{5, 5, 5, 5}) != 0 {
		t.Fatal("zero variance should give 0")
	}
}

// Property: skewness is invariant under positive affine transforms and
// negates under reflection.
func TestPropertySkewnessAffine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		s := Skewness(xs)
		scaled := make([]float64, len(xs))
		neg := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = 3*x + 7
			neg[i] = -x
		}
		return math.Abs(Skewness(scaled)-s) < 1e-6 && math.Abs(Skewness(neg)+s) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFMonotone(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	pts := CDF(xs, []float64{0.2, 0.5, 0.9, 1.0})
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value {
			t.Fatalf("CDF not monotone: %+v", pts)
		}
	}
	if pts[len(pts)-1].Value != 9 {
		t.Fatalf("CDF max = %f", pts[len(pts)-1].Value)
	}
}

func TestWebCorpusShares(t *testing.T) {
	w := DefaultWebCorpus(64)
	w.TotalVirtual = 64 * media.MB // small sample for the test
	rng := rand.New(rand.NewSource(9))
	domainBytes := map[string]int{}
	langBytes := map[string]int{}
	total := 0
	n := int(w.Records())
	for i := 0; i < n; i++ {
		pg := w.page(rng, int64(i))
		sz := w.RecordReal()
		domainBytes[pg.Domain] += sz
		langBytes[pg.Language] += sz
		total += sz
	}
	top := 0
	for _, b := range domainBytes {
		if b > top {
			top = b
		}
	}
	topShare := float64(top) / float64(total)
	if topShare < 0.2 || topShare > 0.4 {
		t.Fatalf("top domain share = %.2f, want ≈ 0.30", topShare)
	}
	enShare := float64(langBytes["en"]) / float64(total)
	if enShare < 0.6 || enShare > 0.8 {
		t.Fatalf("english share = %.2f, want ≈ 0.71", enShare)
	}
}

func TestWebCorpusTupleSchemaAndSize(t *testing.T) {
	w := DefaultWebCorpus(64)
	rng := rand.New(rand.NewSource(1))
	pg := w.page(rng, 0)
	tu := w.Tuple(pg)
	if tu.String(1) != pg.Domain || tu.String(2) != pg.Language {
		t.Fatal("tuple schema wrong")
	}
	if tu.Float(3) != pg.Spam {
		t.Fatal("spam score wrong")
	}
	if len(tu.Nested(4)) != w.TermsPerPage {
		t.Fatal("terms wrong")
	}
	got := len(pig.AppendTuple(nil, tu))
	want := w.RecordReal()
	if got < want-32 || got > want+32 {
		t.Fatalf("serialized record = %d real bytes, want ≈ %d", got, want)
	}
}

func TestWebCorpusDeterministic(t *testing.T) {
	w := DefaultWebCorpus(64)
	a := rand.New(rand.NewSource(3))
	b := rand.New(rand.NewSource(3))
	for i := int64(0); i < 100; i++ {
		pa, pb := w.page(a, i), w.page(b, i)
		if pa.URL != pb.URL || pa.Spam != pb.Spam {
			t.Fatal("corpus not deterministic")
		}
	}
}

func TestNumbersDeterministicAndBounded(t *testing.T) {
	n := DefaultNumbers(64)
	if n.Records() != 10*media.GB/(16*media.KB) {
		t.Fatalf("records = %d", n.Records())
	}
	for i := int64(0); i < 1000; i++ {
		v := n.Value(i)
		if v != n.Value(i) || v < 0 || v >= 1e6 {
			t.Fatalf("value(%d) = %f", i, v)
		}
	}
}

func TestJobPopulationAnchors(t *testing.T) {
	p := DefaultJobPopulation()
	p.Jobs = 5000
	jobs := p.Generate()
	all := AllTaskInputs(jobs)
	med := Quantile(all, 0.5)
	max := Quantile(all, 1.0)
	// Figure 1(a): max is many orders of magnitude above the median.
	orders := math.Log10(max / med)
	if orders < 5 {
		t.Fatalf("max/median spans only %.1f orders of magnitude", orders)
	}
	if max < 50*float64(media.GB) {
		t.Fatalf("tail never reaches tens of GB: max = %.0f", max)
	}
	// Figure 1(b): a large fraction of jobs are highly skewed.
	sk := JobSkewness(jobs)
	highly := 0
	for _, s := range sk {
		if s > 1 || s < -1 {
			highly++
		}
	}
	frac := float64(highly) / float64(len(sk))
	if frac < 0.25 {
		t.Fatalf("only %.0f%% of jobs highly skewed, want a big fraction", frac*100)
	}
}

func TestJobPopulationDeterministic(t *testing.T) {
	p := DefaultJobPopulation()
	p.Jobs = 200
	a, b := p.Generate(), p.Generate()
	for i := range a {
		if len(a[i].TaskInputs) != len(b[i].TaskInputs) || a[i].TaskInputs[0] != b[i].TaskInputs[0] {
			t.Fatal("population not deterministic")
		}
	}
}

// fmtPage is the record generator as first written, with fmt.Sprintf:
// the reference the direct encoder is held to.
func fmtPage(w *WebCorpus, rng *rand.Rand, idx int64) Page {
	d := pickCum(w.domainCum, rng.Float64())
	l := pickCum(w.langCum, rng.Float64())
	terms := make([]string, w.TermsPerPage)
	for j := range terms {
		t := int(rng.ExpFloat64() * float64(w.VocabSize) / 12)
		if t >= w.VocabSize {
			t = w.VocabSize - 1
		}
		terms[j] = fmt.Sprintf("term%04d", t)
	}
	spam := rng.Float64()*0.8 + float64(d%5)*0.04
	return Page{
		URL:      fmt.Sprintf("http://www.domain%03d.com/page/%d", d, idx),
		Domain:   fmt.Sprintf("domain%03d.com", d),
		Language: w.Languages[l],
		Spam:     spam,
		Terms:    terms,
	}
}

// fiveFields is a page's record schema without the padding field.
func fiveFields(pg Page) pig.Tuple {
	terms := make(pig.Tuple, len(pg.Terms))
	for i, term := range pg.Terms {
		terms[i] = term
	}
	return pig.Tuple{pg.URL, pg.Domain, pg.Language, pg.Spam, terms}
}

// fmtRecord is a record as first generated: formatted strings, a
// pig.Tuple, and padding sized from a throwaway encoding.
func fmtRecord(w *WebCorpus, rng *rand.Rand, idx int64) []byte {
	t := fiveFields(fmtPage(w, rng, idx))
	pad := w.RecordReal() - (len(pig.AppendTuple(nil, t)) + 20)
	if pad < 0 {
		pad = 0
	}
	return pig.AppendTuple(nil, append(t, string(make([]byte, pad))))
}

func TestRecordEncoderMatchesTupleEncoding(t *testing.T) {
	small := DefaultWebCorpus(64)
	small.TotalVirtual = 300 * small.RecordVirtual
	odd := DefaultWebCorpus(64)
	odd.TotalVirtual = 300 * odd.RecordVirtual
	odd.VocabSize, odd.Domains, odd.TermsPerPage = 20_000, 1500, 3
	odd.init()
	// Record 0's padding lands exactly at zero; records with longer
	// URLs or terms would go below it and are clamped.
	atZero := DefaultWebCorpus(64)
	atZero.TotalVirtual = 300 * atZero.RecordVirtual
	rng := rand.New(rand.NewSource(atZero.Seed))
	pg := fmtPage(atZero, rng, 0)
	five := pig.AppendTuple(nil, fiveFields(pg))
	atZero.RecordVirtual = int64(len(five)+20) * atZero.Scale
	atZero.TotalVirtual = 300 * atZero.RecordVirtual
	tiny := DefaultWebCorpus(64)
	tiny.RecordVirtual = 64
	tiny.TotalVirtual = 300 * tiny.RecordVirtual

	for name, w := range map[string]*WebCorpus{"default": small, "odd-shape": odd, "pad-at-zero": atZero, "pad-below-zero": tiny} {
		for _, seed := range []int64{1, 7, 42} {
			w.Seed = seed
			for _, splits := range []int{1, 3} {
				total := w.Records()
				for s := 0; s < splits; s++ {
					per := total / int64(splits)
					idx := int64(s) * per
					rng := rand.New(rand.NewSource(w.Seed + int64(s)*7919))
					pageRNG := rand.New(rand.NewSource(w.Seed + int64(s)*7919))
					w.Input("/web", splits).MakeRecords(s)(func(k, v []byte) {
						want := fmtRecord(w, rng, idx)
						if !bytes.Equal(v, want) {
							t.Fatalf("%s seed %d split %d/%d record %d: encoder bytes differ from the tuple encoding", name, seed, s, splits, idx)
						}
						if !bytes.Equal(pig.AppendTuple(nil, w.Tuple(w.page(pageRNG, idx))), want) {
							t.Fatalf("%s seed %d split %d/%d record %d: Tuple(page) differs from the tuple encoding", name, seed, s, splits, idx)
						}
						idx++
					})
					if hi := int64(s+1) * per; s < splits-1 && idx != hi || s == splits-1 && idx != total {
						t.Fatalf("%s split %d/%d ended at record %d", name, s, splits, idx)
					}
				}
			}
		}
	}
	if small.padLen(len(five)) <= 0 || atZero.padLen(len(five)) != 0 || tiny.padLen(len(five)) != 0 {
		t.Fatal("padding cases do not cover positive, zero and clamped padding")
	}
}

func TestPageMatchesFormattedPage(t *testing.T) {
	w := DefaultWebCorpus(64)
	w.Domains = 1500 // four-digit domain numbers overflow %03d's width
	w.init()
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for i := int64(0); i < 500; i++ {
		got, want := w.page(a, i*1_000_003), fmtPage(w, b, i*1_000_003)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("record %d: page %+v, want %+v", i, got, want)
		}
	}
	for _, c := range []struct {
		v     int64
		width int
	}{{0, 3}, {7, 3}, {42, 4}, {12345, 4}, {-1, 4}, {-12345, 3}} {
		if got, want := string(appendPadded(nil, c.v, c.width)), fmt.Sprintf("%0*d", c.width, c.v); got != want {
			t.Errorf("appendPadded(%d, %d) = %q, want %q", c.v, c.width, got, want)
		}
	}
}

func TestWebCorpusGeneratorSteadyStateAllocationFree(t *testing.T) {
	w := DefaultWebCorpus(64)
	enc := w.newRecordEncoder()
	rng := rand.New(rand.NewSource(1))
	idx := int64(0)
	for ; idx < 100; idx++ {
		enc.encode(rng, idx)
	}
	if a := testing.AllocsPerRun(1000, func() { enc.encode(rng, idx); idx++ }); a != 0 {
		t.Fatalf("corpus generator: %.2f allocs/record in steady state, want 0", a)
	}
}
