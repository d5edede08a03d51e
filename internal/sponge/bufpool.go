package sponge

import "sync"

// bufPool recycles chunk-sized payload buffers across every SpongeFile of
// a service. The spill pipeline moves one such buffer per chunk — staging
// buffer, async hand-off, fetch, prefetch — and allocating each of them
// fresh made the spill path the dominant source of GC pressure in the
// macro benchmarks. A plain mutex-guarded stack (rather than sync.Pool)
// keeps the behaviour deterministic and the steady state provably
// allocation-free; the wire servers touch pools from real OS threads, so
// the lock is a real one.
type bufPool struct {
	mu   sync.Mutex
	size int // every buffer is exactly this long
	max  int // retained buffers beyond this are dropped to the GC
	free [][]byte

	gets, puts, misses int64
}

// bufPoolMax bounds retained buffers per service. At the default real
// chunk size (16 KiB at scale 64) this caps the cache at a few MB while
// comfortably covering every file's in-flight chunks.
const bufPoolMax = 512

func newBufPool(size int) *bufPool {
	if size <= 0 {
		panic("sponge: bad buffer size")
	}
	return &bufPool{size: size, max: bufPoolMax}
}

// Get returns a buffer of exactly the pool's size. Contents are
// unspecified: every caller overwrites the prefix it uses and tracks its
// valid length, exactly as with the chunk slabs themselves.
func (b *bufPool) Get() []byte {
	b.mu.Lock()
	b.gets++
	if n := len(b.free); n > 0 {
		buf := b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		b.mu.Unlock()
		return buf
	}
	b.misses++
	b.mu.Unlock()
	return make([]byte, b.size)
}

// Put returns a buffer obtained from Get, possibly re-sliced shorter.
// Buffers of foreign capacity are dropped rather than poisoning the pool.
func (b *bufPool) Put(buf []byte) {
	if cap(buf) < b.size {
		return
	}
	b.mu.Lock()
	b.puts++
	if len(b.free) < b.max {
		b.free = append(b.free, buf[:b.size])
	}
	b.mu.Unlock()
}

// BufPoolStats describes buffer traffic through a service's chunk-buffer
// pool. Outstanding is Gets-Puts: buffers currently held by files (or,
// after everything is deleted, leaked — the recycling tests assert it
// returns to zero).
type BufPoolStats struct {
	Gets, Puts, Misses int64
	Cached             int
}

// Outstanding returns how many buffers are checked out right now.
func (s BufPoolStats) Outstanding() int64 { return s.Gets - s.Puts }

// Stats snapshots the pool's counters.
func (b *bufPool) Stats() BufPoolStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BufPoolStats{Gets: b.gets, Puts: b.puts, Misses: b.misses, Cached: len(b.free)}
}
