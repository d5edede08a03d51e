package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"spongefiles/internal/sponge"
)

func startServer(t *testing.T, chunkSize, chunks int) (*Server, *Client) {
	t.Helper()
	pool := sponge.NewPool(chunkSize, chunks)
	srv, err := Serve(pool, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func TestAllocWriteReadFree(t *testing.T) {
	_, c := startServer(t, 4096, 4)
	owner := sponge.TaskID{Node: 3, PID: 77}
	data := bytes.Repeat([]byte("sponge"), 100)
	h, err := c.AllocWrite(owner, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %d bytes, want %d", len(got), len(data))
	}
	if err := c.Free(h); err != nil {
		t.Fatal(err)
	}
	free, total, size, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if free != 4 || total != 4 || size != 4096 {
		t.Fatalf("stat = %d/%d/%d", free, total, size)
	}
}

func TestExhaustionReturnsNoFreeChunk(t *testing.T) {
	_, c := startServer(t, 128, 2)
	owner := sponge.TaskID{Node: 1, PID: 1}
	if _, err := c.AllocWrite(owner, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocWrite(owner, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocWrite(owner, []byte("c")); err != ErrNoFreeChunk {
		t.Fatalf("err = %v, want ErrNoFreeChunk", err)
	}
}

func TestFullChunkPayload(t *testing.T) {
	const size = 1 << 16
	_, c := startServer(t, size, 1)
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	h, err := c.AllocWrite(sponge.TaskID{Node: 0, PID: 9}, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("full-chunk payload corrupt")
	}
}

func TestLivenessProtocol(t *testing.T) {
	_, c := startServer(t, 128, 1)
	alive, err := c.Ping(42)
	if err != nil || alive {
		t.Fatalf("unknown pid alive=%v err=%v", alive, err)
	}
	if err := c.Register(42); err != nil {
		t.Fatal(err)
	}
	if alive, _ := c.Ping(42); !alive {
		t.Fatal("registered pid should be alive")
	}
	if err := c.Unregister(42); err != nil {
		t.Fatal(err)
	}
	if alive, _ := c.Ping(42); alive {
		t.Fatal("unregistered pid should be dead")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := startServer(t, 1024, 64)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			owner := sponge.TaskID{Node: g, PID: int64(g) + 1}
			for i := 0; i < 20; i++ {
				data := []byte(fmt.Sprintf("g%d-i%d", g, i))
				h, err := c.AllocWrite(owner, data)
				if err != nil {
					errs <- err
					return
				}
				got, err := c.Read(h)
				if err != nil || !bytes.Equal(got, data) {
					errs <- fmt.Errorf("g%d i%d corrupt (%v)", g, i, err)
					return
				}
				if err := c.Free(h); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestOversizedFrameDropsConnection(t *testing.T) {
	srv, _ := startServer(t, 1024, 4)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A payload bigger than a chunk exceeds the server's frame limit;
	// the server drops the connection rather than buffering it.
	big := make([]byte, 64<<10)
	if _, err := c.AllocWrite(sponge.TaskID{Node: 0, PID: 1}, big); err == nil {
		t.Fatal("oversized frame should fail")
	}
}

func TestFreeOfBadHandle(t *testing.T) {
	_, c := startServer(t, 128, 2)
	if err := c.Free(7); err == nil {
		t.Fatal("free of unallocated handle should fail")
	}
}

func TestDialNegotiatesV2(t *testing.T) {
	_, c := startServer(t, 4096, 4)
	if c.ChunkSize() != 4096 {
		t.Fatalf("chunk size = %d, want 4096", c.ChunkSize())
	}
}

// One pipelined client shared by many goroutines: interleaved responses
// on a single connection must route back to the right caller.
func TestPipelinedSharedClientNoCrossTalk(t *testing.T) {
	_, c := startServer(t, 1024, 64)
	const workers, ops = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			owner := sponge.TaskID{Node: g, PID: int64(g) + 1}
			buf := make([]byte, 1024)
			for i := 0; i < ops; i++ {
				data := bytes.Repeat([]byte{byte(g)*31 + byte(i)}, 64+g*16)
				h, err := c.AllocWrite(owner, data)
				if err != nil {
					errs <- err
					return
				}
				n, err := c.ReadInto(h, buf)
				if err != nil || !bytes.Equal(buf[:n], data) {
					errs <- fmt.Errorf("g%d i%d cross-talk or corrupt (%v)", g, i, err)
					return
				}
				if err := c.Free(h); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestReadInto(t *testing.T) {
	_, c := startServer(t, 4096, 4)
	data := bytes.Repeat([]byte("zc"), 200)
	h, err := c.AllocWrite(sponge.TaskID{Node: 1, PID: 5}, data)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := c.ReadInto(h, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], data) {
		t.Fatalf("ReadInto got %d bytes, want %d", n, len(data))
	}
	// A too-small buffer fails with io.ErrShortBuffer but must not
	// poison the connection.
	if _, err := c.ReadInto(h, make([]byte, 10)); !errors.Is(err, io.ErrShortBuffer) {
		t.Fatalf("short buffer err = %v, want io.ErrShortBuffer", err)
	}
	if n, err := c.ReadInto(h, buf); err != nil || !bytes.Equal(buf[:n], data) {
		t.Fatalf("connection unusable after short-buffer read: %v", err)
	}
}

func TestDialPool(t *testing.T) {
	srv, _ := startServer(t, 1024, 64)
	p, err := DialPool(srv.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Size() != 3 || p.ChunkSize() != 1024 {
		t.Fatalf("pool size=%d chunk=%d", p.Size(), p.ChunkSize())
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			owner := sponge.TaskID{Node: g, PID: int64(g) + 1}
			for i := 0; i < 10; i++ {
				data := []byte(fmt.Sprintf("pool-g%d-i%d", g, i))
				h, err := p.AllocWrite(owner, data)
				if err != nil {
					errs <- err
					return
				}
				got, err := p.Read(h)
				if err != nil || !bytes.Equal(got, data) {
					errs <- fmt.Errorf("pool g%d i%d corrupt (%v)", g, i, err)
					return
				}
				if err := p.Free(h); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Dial against a peer that refuses the hello must fail promptly with
// the refusal, even though the peer keeps the connection open.
func TestDialFailsPromptlyWhenHelloRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				id, _, err := readRawFrame(conn)
				if err != nil {
					return
				}
				writeRawFrame(conn, id, []byte{StatusBadRequest})
				io.Copy(io.Discard, conn) // hold the connection open
			}()
		}
	}()
	done := make(chan error, 1)
	go func() {
		c, err := Dial(ln.Addr().String())
		if err == nil {
			c.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("Dial against a refusing peer = %v, want ErrBadRequest", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dial against a refusing peer hung")
	}
}

// The seed client swallowed a failed initial Stat and guessed a 1 MiB
// chunk size; Dial must now propagate the failure.
func TestDialPropagatesHandshakeError(t *testing.T) {
	// Server that accepts and slams the connection: the hello can never
	// complete.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	if _, err := Dial(ln.Addr().String()); err == nil {
		t.Fatal("Dial against a dead handshake should fail, not guess a chunk size")
	}
}

// writeRawFrame sends one frame on a raw connection.
func writeRawFrame(w io.Writer, id uint32, body []byte) error {
	frame := make([]byte, 8, 8+len(body))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], id)
	_, err := w.Write(append(frame, body...))
	return err
}

// readRawFrame receives one frame (up to handshakeLimit bytes) on a raw
// connection.
func readRawFrame(r io.Reader) (id uint32, body []byte, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > handshakeLimit {
		return 0, nil, fmt.Errorf("frame of %d bytes exceeds limit", n)
	}
	body = make([]byte, n)
	_, err = io.ReadFull(r, body)
	return binary.LittleEndian.Uint32(hdr[4:8]), body, err
}

// dialRawV2 opens a raw socket and completes the hello by hand so tests
// can then speak malformed frames.
func dialRawV2(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := writeRawFrame(conn, 0, []byte{OpHello, ProtocolV2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readRawFrame(conn); err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestServerDropsOversizedV2Frame(t *testing.T) {
	srv, _ := startServer(t, 1024, 4)
	conn := dialRawV2(t, srv.Addr())
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<30) // far past chunk+slack
	binary.LittleEndian.PutUint32(hdr[4:8], 1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after oversized frame = %v, want EOF (connection dropped)", err)
	}
}

// TestServerSurvivesTruncatedFrame feeds the server truncated and
// hostile frames — a body cut short after the hello, and first frames
// that must not open a request stream — and checks that each gets a
// StatusBadRequest or a clean drop, is counted (bad request or fd-pass
// failure), leaves no handler behind once the peer hangs up, and leaves
// the server serving other clients and able to Close.
func TestServerSurvivesTruncatedFrame(t *testing.T) {
	frame := func(body ...byte) []byte {
		var b bytes.Buffer
		writeRawFrame(&b, 9, body)
		return b.Bytes()
	}
	oversized := make([]byte, 8)
	binary.LittleEndian.PutUint32(oversized[0:4], 1<<30) // far past chunk+slack
	const (
		bad    = "spongewire_bad_requests_total"
		fdFail = "spongewire_fdpass_fail_total"
	)
	cases := []struct {
		name   string
		opts   Options
		unix   bool // dial the unix socket instead of TCP
		hello  bool // complete the hello before sending
		send   []byte
		refuse bool   // expect a StatusBadRequest reply
		closed bool   // expect the server to drop the connection
		metric string // counter the frame must bump; "" = none
	}{
		// Promise 50 bytes, deliver 10, hang up.
		{name: "truncated-body", hello: true,
			send: frame(make([]byte, 50)...)[:18]},
		{name: "op-before-hello", send: frame(OpStat), refuse: true, closed: true, metric: bad},
		{name: "hello-v1", send: frame(OpHello, 1), refuse: true, closed: true, metric: bad},
		{name: "oversized-first-frame", send: oversized, closed: true, metric: bad},
		{name: "truncated-header", send: oversized[:3], metric: bad},
		{name: "spill-fd-over-tcp", opts: Options{SpillDir: t.TempDir()},
			send: frame(OpSpillFD), refuse: true, metric: fdFail},
		{name: "pool-fd-over-tcp", send: frame(OpPoolFD), refuse: true, metric: fdFail},
		{name: "spill-fd-no-zero-copy", opts: Options{SpillDir: t.TempDir(), NoZeroCopy: true},
			unix: true, send: frame(OpSpillFD), refuse: true, metric: fdFail},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			if tc.unix {
				opts.LocalSocketDir = shortSockDir(t)
			}
			srv, err := ServeOptions(sponge.NewPool(1024, 4), "127.0.0.1:0", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			var conn net.Conn
			switch {
			case tc.hello:
				conn = dialRawV2(t, srv.Addr())
			case tc.unix:
				conn, err = net.Dial("unix", srv.LocalSocket())
			default:
				conn, err = net.Dial("tcp", srv.Addr())
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(tc.send); err != nil {
				t.Fatal(err)
			}
			if tc.refuse {
				if _, resp, err := readRawFrame(conn); err != nil || len(resp) != 1 || resp[0] != StatusBadRequest {
					t.Fatalf("reply = (%v, %v), want [StatusBadRequest]", resp, err)
				}
			}
			if tc.closed {
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
					t.Fatalf("read after the frame = %v, want EOF (connection dropped)", err)
				}
			}
			conn.Close()

			// The handler exits once the peer is gone: the connection was
			// accepted and is no longer open.
			listen := `{listen="` + srv.Addr() + `"}`
			tier := `{listen="` + srv.Addr() + `",tier="tcp"}`
			if tc.unix {
				tier = `{listen="` + srv.Addr() + `",tier="unix"}`
			}
			deadline := time.Now().Add(5 * time.Second)
			for tierSample(t, srv.Metrics(), "spongewire_connections_total"+tier) != 1 ||
				tierSample(t, srv.Metrics(), "spongewire_open_connections"+listen) != 0 {
				if time.Now().After(deadline) {
					t.Fatal("connection handler still running after the peer hung up")
				}
				time.Sleep(5 * time.Millisecond)
			}
			if tc.metric != "" {
				if got := tierSample(t, srv.Metrics(), tc.metric+listen); got != 1 {
					t.Errorf("%s = %d, want 1", tc.metric, got)
				}
			}

			// The server keeps serving others, and still closes.
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := c.Stat(); err != nil {
				t.Fatalf("server unhealthy after the frame: %v", err)
			}
			c.Close()
			closed := make(chan error, 1)
			go func() { closed <- srv.Close() }()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close hung: a connection handler was left behind")
			}
		})
	}
}

// fakeV2Server negotiates the hello and then hands the connection to
// misbehave, which can violate the protocol at will.
func fakeV2Server(t *testing.T, chunkSize int, misbehave func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				id, _, err := readRawFrame(conn)
				if err != nil {
					return
				}
				resp := make([]byte, helloRespLen)
				resp[0] = StatusOK
				resp[1] = ProtocolV2
				binary.LittleEndian.PutUint32(resp[10:14], uint32(chunkSize))
				if err := writeRawFrame(conn, id, resp); err != nil {
					return
				}
				misbehave(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

func TestClientRejectsOversizedResponseFrame(t *testing.T) {
	addr := fakeV2Server(t, 1024, func(conn net.Conn) {
		// Swallow whatever request arrives, answer with an impossible
		// frame length.
		buf := make([]byte, 256)
		if _, err := conn.Read(buf); err != nil {
			return
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], 1<<30)
		binary.LittleEndian.PutUint32(hdr[4:8], 1)
		conn.Write(hdr[:])
		// Hold the connection open; the client must bail on its own.
		io.Copy(io.Discard, conn)
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, err := c.Stat(); err == nil {
		t.Fatal("oversized response frame should fail the request")
	}
	// The violation poisons the connection: later requests fail fast.
	if _, err := c.Read(0); err == nil {
		t.Fatal("connection should be poisoned after a protocol violation")
	}
}

func TestClientRejectsTruncatedResponse(t *testing.T) {
	addr := fakeV2Server(t, 1024, func(conn net.Conn) {
		buf := make([]byte, 256)
		if _, err := conn.Read(buf); err != nil {
			return
		}
		// Promise a 100-byte response, send 3 bytes of it, hang up.
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], 100)
		binary.LittleEndian.PutUint32(hdr[4:8], 1)
		conn.Write(hdr[:])
		conn.Write([]byte{StatusOK, 1, 2})
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read(0); err == nil {
		t.Fatal("truncated response should fail the request")
	}
}
