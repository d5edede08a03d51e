package pig

import (
	"fmt"
	"sort"

	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
)

// MemoryManager mirrors Pig's SpillableMemoryManager: bags register with
// it, report their estimated sizes, and when bag memory exceeds the
// task's budget it spills the largest bags first (the paper: applications
// "try to spill the bigger objects to free more memory") until usage is
// back under the threshold.
type MemoryManager struct {
	p      *simtime.Proc
	target spill.Target
	// BudgetReal is the real-byte budget for bag memory.
	BudgetReal int
	// ChunkReal is Pig's bag spill chunk size C (10 MB virtual by
	// default): each spill event writes whole chunks of this size,
	// each into its own spill file ("each spilled object is written
	// into a separate SpongeFile", §3.2).
	ChunkReal int

	used   int
	bags   []*Bag
	spills int
}

// NewMemoryManager creates a manager spilling through target.
func NewMemoryManager(p *simtime.Proc, target spill.Target, budgetReal, chunkReal int) *MemoryManager {
	if chunkReal <= 0 {
		chunkReal = 64 << 10
	}
	return &MemoryManager{p: p, target: target, BudgetReal: budgetReal, ChunkReal: chunkReal}
}

// Used reports current in-memory bag bytes (real).
func (m *MemoryManager) Used() int { return m.used }

// Spills reports how many spill events the manager has triggered.
func (m *MemoryManager) Spills() int { return m.spills }

func (m *MemoryManager) grow(n int) {
	m.used += n
	if m.used <= m.BudgetReal {
		return
	}
	// Memory pressure upcall: spill the largest bags until under budget.
	for m.used > m.BudgetReal {
		var victim *Bag
		for _, b := range m.bags {
			if b.memBytes > 0 && (victim == nil || b.memBytes > victim.memBytes) {
				victim = b
			}
		}
		if victim == nil || victim.memBytes < m.ChunkReal/4 {
			// Nothing big enough left to spill profitably.
			return
		}
		m.spills++
		victim.spillNow(m.p)
	}
}

func (m *MemoryManager) shrink(n int) { m.used -= n }

// Bag is Pig's primary intermediate structure: a collection of tuples
// supporting insertion and iteration, spilling itself when the memory
// manager detects pressure (§2.1.3). A bag created with a sort key is an
// ordered bag: iteration is globally sorted by the key (spilled runs are
// sorted before writing, and iteration merges them).
type Bag struct {
	mm   *MemoryManager
	name string
	// sortKey orders tuples when non-nil (ordered bag).
	sortKey func(Tuple) Value

	// In-memory portion: serialized tuples (and their keys, if sorted).
	tuples   [][]byte
	keys     []Value
	memBytes int

	// Spilled runs, in spill order.
	runs  []spill.File
	runSz int
	total int64
}

// NewBag creates an unordered bag registered with the manager.
func (m *MemoryManager) NewBag(name string) *Bag {
	b := &Bag{mm: m, name: name}
	m.bags = append(m.bags, b)
	return b
}

// NewSortedBag creates an ordered bag whose iteration is sorted by key.
func (m *MemoryManager) NewSortedBag(name string, key func(Tuple) Value) *Bag {
	b := &Bag{mm: m, name: name, sortKey: key}
	m.bags = append(m.bags, b)
	return b
}

// Len returns the number of tuples added.
func (b *Bag) Len() int64 { return b.total }

// MemBytes returns the in-memory portion's real size.
func (b *Bag) MemBytes() int { return b.memBytes }

// SpilledRuns returns how many spill files the bag has written.
func (b *Bag) SpilledRuns() int { return len(b.runs) }

// AddSerialized inserts an already-serialized tuple (the reduce path
// hands bags serialized values directly).
func (b *Bag) AddSerialized(data []byte) {
	cp := append([]byte(nil), data...)
	b.tuples = append(b.tuples, cp)
	if b.sortKey != nil {
		b.keys = append(b.keys, b.sortKey(DecodeTuple(cp)))
	}
	b.memBytes += len(cp)
	b.total++
	b.mm.grow(len(cp))
}

// Add inserts a tuple.
func (b *Bag) Add(t Tuple) { b.AddSerialized(AppendTuple(nil, t)) }

// spillNow writes the in-memory portion out in ChunkReal-sized pieces,
// each piece its own spill file, and frees the memory. Ordered bags sort
// the portion first so every run is a sorted run.
func (b *Bag) spillNow(p *simtime.Proc) {
	if len(b.tuples) == 0 {
		return
	}
	if b.sortKey != nil {
		idx := make([]int, len(b.tuples))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(i, j int) bool {
			return Compare(b.keys[idx[i]], b.keys[idx[j]]) < 0
		})
		tuples := make([][]byte, len(idx))
		keys := make([]Value, len(idx))
		for i, j := range idx {
			tuples[i], keys[i] = b.tuples[j], b.keys[j]
		}
		b.tuples, b.keys = tuples, keys
	}
	var f spill.File
	chunk := 0
	for _, t := range b.tuples {
		if f == nil {
			f = b.mm.target.Create(p, fmt.Sprintf("%s-run%d", b.name, len(b.runs)))
			b.runs = append(b.runs, f)
			chunk = 0
		}
		var hdr [4]byte
		putLen(hdr[:], len(t))
		if err := f.Write(p, hdr[:]); err != nil {
			panic(err)
		}
		if err := f.Write(p, t); err != nil {
			panic(err)
		}
		chunk += 4 + len(t)
		if chunk >= b.mm.ChunkReal {
			if err := f.Close(p); err != nil {
				panic(err)
			}
			f = nil
		}
	}
	if f != nil {
		if err := f.Close(p); err != nil {
			panic(err)
		}
	}
	b.mm.shrink(b.memBytes)
	b.memBytes = 0
	b.tuples = nil
	b.keys = nil
}

// Delete frees the bag's spill files and memory.
func (b *Bag) Delete(p *simtime.Proc) {
	for _, f := range b.runs {
		f.Delete(p)
	}
	b.runs = nil
	b.mm.shrink(b.memBytes)
	b.memBytes = 0
	b.tuples = nil
	b.keys = nil
}

func putLen(dst []byte, n int) {
	dst[0] = byte(n)
	dst[1] = byte(n >> 8)
	dst[2] = byte(n >> 16)
	dst[3] = byte(n >> 24)
}

func getLen(src []byte) int {
	return int(src[0]) | int(src[1])<<8 | int(src[2])<<16 | int(src[3])<<24
}

// Iterator yields a bag's tuples.
type Iterator interface {
	Next(p *simtime.Proc) (Tuple, bool)
}

// bagMergeFactor bounds how many spilled runs an ordered bag reads
// concurrently off seek-bound media, mirroring io.sort.factor.
const bagMergeFactor = 10

// Iterate returns an iterator over the bag: spilled runs first, then the
// in-memory portion for unordered bags; a k-way merge by sort key for
// ordered bags. Iteration may run multiple times (each run rewinds the
// spill files).
//
// An ordered bag with many runs first consolidates them in rounds of
// bagMergeFactor, re-spilling the data — Pig's seek avoidance, and the
// source of the spam-quantiles job's amplified spill volume (Table 2:
// 3 GB in, 10.2 GB spilled). Unlike the Hadoop reduce merger, which the
// paper's integration taught to merge in a single round off SpongeFiles
// (§4.2.3), Pig's bag policy is medium-blind: the paper's Table 2 shows
// the same ~3.4× amplification with SpongeFile spilling.
func (b *Bag) Iterate(p *simtime.Proc) Iterator {
	if b.sortKey != nil {
		b.consolidate(p)
	}
	for _, f := range b.runs {
		f.Rewind()
	}
	if b.sortKey == nil {
		return &chainIter{b: b}
	}
	// Ordered: sort the in-memory portion and merge with the runs.
	b.sortMem()
	streams := make([]*runIter, 0, len(b.runs)+1)
	for _, f := range b.runs {
		streams = append(streams, &runIter{f: f})
	}
	m := &mergeIter{b: b, runs: streams}
	return m
}

// consolidate merges sorted runs, bagMergeFactor at a time, until at
// most bagMergeFactor remain. Each original byte is rewritten once.
// Tuples are re-encoded into one reused buffer: File.Write copies.
func (b *Bag) consolidate(p *simtime.Proc) {
	var data []byte
	for len(b.runs) > bagMergeFactor {
		batch := b.runs[:bagMergeFactor]
		streams := make([]*runIter, len(batch))
		for i, f := range batch {
			f.Rewind()
			streams[i] = &runIter{f: f}
		}
		merged := b.mm.target.Create(p, fmt.Sprintf("%s-cons%d", b.name, len(b.runs)))
		m := &mergeIter{b: &Bag{sortKey: b.sortKey}, runs: streams}
		for {
			t, ok := m.Next(p)
			if !ok {
				break
			}
			data = AppendTuple(data[:0], t)
			var hdr [4]byte
			putLen(hdr[:], len(data))
			if err := merged.Write(p, hdr[:]); err != nil {
				panic(err)
			}
			if err := merged.Write(p, data); err != nil {
				panic(err)
			}
		}
		if err := merged.Close(p); err != nil {
			panic(err)
		}
		for _, f := range batch {
			f.Delete(p)
		}
		b.runs = append(b.runs[bagMergeFactor:], merged)
	}
}

func (b *Bag) sortMem() {
	if len(b.tuples) == 0 {
		return
	}
	idx := make([]int, len(b.tuples))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return Compare(b.keys[idx[i]], b.keys[idx[j]]) < 0
	})
	tuples := make([][]byte, len(idx))
	keys := make([]Value, len(idx))
	for i, j := range idx {
		tuples[i], keys[i] = b.tuples[j], b.keys[j]
	}
	b.tuples, b.keys = tuples, keys
}

// runIter decodes tuples from one spill file with buffered reads.
type runIter struct {
	f    spill.File
	buf  []byte
	fill int
	off  int
	eof  bool
	cur  Tuple
}

const runBufReal = 64 << 10

// refill ensures at least need unconsumed bytes are buffered (compacting
// the consumed prefix first), reporting false at end of stream.
func (r *runIter) refill(p *simtime.Proc, need int) bool {
	if r.off > 0 {
		copy(r.buf[:cap(r.buf)], r.buf[r.off:r.fill])
		r.fill -= r.off
		r.off = 0
	}
	for r.fill < need && !r.eof {
		if cap(r.buf) < need {
			grown := make([]byte, r.fill, need+runBufReal)
			copy(grown, r.buf[:r.fill])
			r.buf = grown
		}
		r.buf = r.buf[:cap(r.buf)]
		n, err := r.f.Read(p, r.buf[r.fill:])
		if err != nil {
			panic(err)
		}
		if n == 0 {
			r.eof = true
		}
		r.fill += n
	}
	r.buf = r.buf[:r.fill]
	return r.fill >= need
}

func (r *runIter) next(p *simtime.Proc) bool {
	if r.fill-r.off < 4 && !r.refill(p, 4) {
		return false
	}
	n := getLen(r.buf[r.off:])
	if r.fill-r.off < 4+n && !r.refill(p, 4+n) {
		panic("pig: truncated tuple in bag run")
	}
	r.cur = DecodeTuple(r.buf[r.off+4 : r.off+4+n])
	r.off += 4 + n
	return true
}

// chainIter yields spilled runs in order, then the memory portion.
type chainIter struct {
	b      *Bag
	runIdx int
	cur    *runIter
	memIdx int
}

func (c *chainIter) Next(p *simtime.Proc) (Tuple, bool) {
	for c.runIdx < len(c.b.runs) {
		if c.cur == nil {
			c.cur = &runIter{f: c.b.runs[c.runIdx]}
		}
		if c.cur.next(p) {
			return c.cur.cur, true
		}
		c.cur = nil
		c.runIdx++
	}
	if c.memIdx < len(c.b.tuples) {
		t := DecodeTuple(c.b.tuples[c.memIdx])
		c.memIdx++
		return t, true
	}
	return nil, false
}

// mergeIter merges sorted runs and the sorted memory portion by key.
type mergeIter struct {
	b      *Bag
	runs   []*runIter
	primed bool
	memIdx int
}

func (m *mergeIter) Next(p *simtime.Proc) (Tuple, bool) {
	if !m.primed {
		live := m.runs[:0]
		for _, r := range m.runs {
			if r.next(p) {
				live = append(live, r)
			}
		}
		m.runs = live
		m.primed = true
	}
	// Pick the smallest head among runs and the memory cursor. Linear
	// scan: bags rarely have more than a few dozen runs.
	best := -1
	var bestKey Value
	for i, r := range m.runs {
		k := m.b.sortKey(r.cur)
		if best == -1 || Compare(k, bestKey) < 0 {
			best, bestKey = i, k
		}
	}
	if m.memIdx < len(m.b.keys) {
		if best == -1 || Compare(m.b.keys[m.memIdx], bestKey) < 0 {
			t := DecodeTuple(m.b.tuples[m.memIdx])
			m.memIdx++
			return t, true
		}
	}
	if best == -1 {
		return nil, false
	}
	t := m.runs[best].cur
	if !m.runs[best].next(p) {
		m.runs = append(m.runs[:best], m.runs[best+1:]...)
	}
	return t, true
}

// DefaultChunkVirtual is Pig's bag spill chunk size C (§2.1.3).
const DefaultChunkVirtual = 10 * media.MB
