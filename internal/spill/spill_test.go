package spill

import (
	"bytes"
	"testing"
	"testing/quick"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
)

func rig(spongeMB int64) (*simtime.Sim, *cluster.Cluster, *sponge.Service) {
	cfg := cluster.PaperConfig()
	cfg.Workers = 2
	cfg.SpongeMemory = spongeMB * media.MB
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	svc := sponge.Start(c, sponge.DefaultConfig())
	return sim, c, svc
}

// spillLifecycle runs one Target through the full spill lifecycle.
func spillLifecycle(t *testing.T, target Target, p *simtime.Proc, size int) {
	t.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 17)
	}
	f := target.Create(p, "spill")
	if err := f.Write(p, data[:size/2]); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Write(p, data[size/2:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Close(p); err != nil {
		t.Fatalf("close: %v", err)
	}
	if f.Size() != int64(size) {
		t.Fatalf("size = %d, want %d", f.Size(), size)
	}
	for pass := 0; pass < 2; pass++ {
		got := make([]byte, 0, size)
		buf := make([]byte, 777)
		for {
			n, err := f.Read(p, buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("pass %d corrupt", pass)
		}
		f.Rewind()
	}
	f.Delete(p)
}

func TestDiskTargetRoundTrip(t *testing.T) {
	sim, c, _ := rig(0)
	sim.Spawn("t", func(p *simtime.Proc) {
		target := NewDiskTarget(c.Nodes[0])
		spillLifecycle(t, target, p, 100_000)
		st := target.Stats()
		if st.Files != 1 || st.BytesReal != 100_000 {
			t.Errorf("stats = %+v", st)
		}
		if st.RemoteMode {
			t.Error("disk target must not claim remote mode")
		}
		if st.Machines != 1 {
			t.Errorf("machines = %d", st.Machines)
		}
	})
	sim.MustRun()
}

func TestSpongeTargetRoundTrip(t *testing.T) {
	sim, c, svc := rig(2) // 2 chunks local: forces remote chunks too
	sim.Spawn("t", func(p *simtime.Proc) {
		target := NewSpongeTarget(svc, c.Nodes[0])
		defer target.Close()
		spillLifecycle(t, target, p, 6*svc.ChunkReal())
		st := target.Stats()
		if !st.RemoteMode {
			t.Error("sponge target must claim remote mode")
		}
		if st.Chunks == 0 || st.BytesReal == 0 {
			t.Errorf("stats = %+v", st)
		}
		if st.Machines < 2 {
			t.Errorf("machines = %d, expected remote involvement", st.Machines)
		}
	})
	sim.MustRun()
}

func TestDiskTargetChargesIO(t *testing.T) {
	sim, c, _ := rig(0)
	var d simtime.Duration
	sim.Spawn("t", func(p *simtime.Proc) {
		target := NewDiskTarget(c.Nodes[0])
		f := target.Create(p, "x")
		start := p.Now()
		if err := f.Write(p, make([]byte, c.Cfg.R(64*media.MB))); err != nil {
			t.Error(err)
		}
		d = p.Now().Sub(start)
	})
	sim.MustRun()
	// 64 virtual MB must cost real virtual time (at least memcpy rate).
	if d < 50*simtime.Millisecond {
		t.Fatalf("write charged only %v", d)
	}
}

func TestFactories(t *testing.T) {
	sim, c, svc := rig(4)
	sim.Spawn("t", func(p *simtime.Proc) {
		if tg := DiskFactory()(c.Nodes[0]); tg.Stats().RemoteMode {
			t.Error("DiskFactory produced remote-mode target")
		}
		tg := SpongeFactory(svc)(c.Nodes[1])
		if !tg.Stats().RemoteMode {
			t.Error("SpongeFactory produced non-remote target")
		}
		tg.Close()
	})
	sim.MustRun()
}

// Property: both targets round-trip arbitrary payloads identically.
func TestPropertyTargetsAgree(t *testing.T) {
	f := func(sizeRaw uint16, seed byte) bool {
		size := int(sizeRaw)%50_000 + 1
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i)*seed + seed
		}
		ok := true
		sim, c, svc := rig(2)
		sim.Spawn("t", func(p *simtime.Proc) {
			for _, target := range []Target{
				NewDiskTarget(c.Nodes[0]),
				NewSpongeTarget(svc, c.Nodes[0]),
			} {
				f := target.Create(p, "prop")
				if err := f.Write(p, data); err != nil {
					ok = false
					return
				}
				if err := f.Close(p); err != nil {
					ok = false
					return
				}
				got := make([]byte, 0, size)
				buf := make([]byte, 4096)
				for {
					n, err := f.Read(p, buf)
					if err != nil {
						ok = false
						return
					}
					if n == 0 {
						break
					}
					got = append(got, buf[:n]...)
				}
				if !bytes.Equal(got, data) {
					ok = false
				}
				f.Delete(p)
				target.Close()
			}
		})
		sim.MustRun()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDiskFileBlocksRoundTrip writes a bag-spill-like mix — 4-byte
// headers, records, and one-shot multi-MB segments — so the file spans
// many blocks, then reads it back through odd-sized buffers, rewinding
// mid-stream. Every read must return min(len(buf), bytes left), exactly
// what one contiguous slice gave, so the disk charges are unchanged.
// The proc only records what it saw; the test goroutine checks it.
func TestDiskFileBlocksRoundTrip(t *testing.T) {
	type read struct{ asked, got, left int }
	var (
		want   []byte
		sizes  [][2]int64 // Size() after each write, and the bytes written
		err    error
		blocks int
		passes [3][]byte // a partial pass, then two full ones
		reads  [3][]read
		after  int64 // Size() after Delete
	)
	sim, c, _ := rig(0)
	sim.Spawn("t", func(p *simtime.Proc) {
		f := NewDiskTarget(c.Nodes[0]).Create(p, "blocks")
		write := func(n int) {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(len(want) + i*31)
			}
			if werr := f.Write(p, data); werr != nil {
				err = werr
			}
			want = append(want, data...)
			sizes = append(sizes, [2]int64{f.Size(), int64(len(want))})
		}
		for i := 0; i < 3000; i++ {
			write(4)
			write(300 + i%97)
		}
		write(3<<20 + 5)
		for i := 0; i < 50; i++ {
			write(4)
			write(1000)
		}
		write(2 << 20)
		if cerr := f.Close(p); cerr != nil {
			err = cerr
		}
		blocks = len(f.(*diskFile).blocks)
		odd := []int{1, 7, 4093, 65537, 1<<20 + 3, 3}
		for pass := range passes {
			limit := len(want) + 10
			if pass == 0 {
				limit = 2<<20 + 11
			}
			for i := 0; len(passes[pass]) < limit; i++ {
				buf := make([]byte, odd[i%len(odd)])
				n, _ := f.Read(p, buf)
				reads[pass] = append(reads[pass], read{len(buf), n, len(want) - len(passes[pass])})
				if n == 0 {
					break
				}
				passes[pass] = append(passes[pass], buf[:n]...)
			}
			f.Rewind()
		}
		f.Delete(p)
		after = f.Size()
	})
	sim.MustRun()

	if err != nil {
		t.Fatal(err)
	}
	for _, sz := range sizes {
		if sz[0] != sz[1] {
			t.Fatalf("size %d after writing %d bytes", sz[0], sz[1])
		}
	}
	if blocks < 8 {
		t.Fatalf("only %d blocks; the test must cross block boundaries", blocks)
	}
	for pass := range passes {
		for _, r := range reads[pass] {
			if r.got != min(r.asked, r.left) {
				t.Fatalf("pass %d: read of %d with %d bytes left returned %d", pass, r.asked, r.left, r.got)
			}
		}
		full := want
		if pass == 0 {
			full = want[:len(passes[0])]
		} else if reads[pass][len(reads[pass])-1].got != 0 {
			t.Fatalf("pass %d: no zero-byte read at the end", pass)
		}
		if !bytes.Equal(passes[pass], full) {
			t.Fatalf("pass %d corrupt", pass)
		}
	}
	if after != 0 {
		t.Fatalf("size %d after delete", after)
	}
}
