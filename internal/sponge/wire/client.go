package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"

	"spongefiles/internal/obs"
	"spongefiles/internal/sponge"
)

// Client talks to one remote sponge server. It is safe for concurrent
// use. The connection is pipelined: any number of requests may be in
// flight at once, a demux goroutine routes responses back to their
// callers by request ID, and chunk payloads ride vectored writes with
// no coalescing copy.
type Client struct {
	conn      net.Conn
	br        *bufio.Reader
	fw        *frameWriter
	chunkSize int
	network   string // "tcp" or "unix"
	addr      string // dial address (socket path for "unix")

	// Pipelining state.
	nextID  atomic.Uint32
	pmu     sync.Mutex
	pending map[uint32]*wireCall
	cerr    error // sticky transport error; guarded by pmu
	done    chan struct{}

	// spillF is the server's spill-file descriptor once FetchSpillFD has
	// passed it over SCM_RIGHTS; spilled chunks are then pread directly.
	spillF atomic.Pointer[os.File]

	// poolFD is the server's pool mapping once FetchPoolFDs (or
	// ArmFDPass) has passed the segment descriptors; pool-resident
	// chunks are then pread directly with a generation check.
	poolFD atomic.Pointer[poolFDState]

	// poolFDOps and genMiss, when non-nil, count pool-fd preads and
	// generation-check misses; wired by the transport so the series land
	// beside its tier counters.
	poolFDOps *obs.Counter
	genMiss   *obs.Counter
}

// poolFDState is the client-side view of a passed pool: the segment
// descriptors to pread from, the read-only mapping of the server's
// generation table, and the geometry that turns handles into (segment,
// offset) pairs.
type poolFDState struct {
	meta      *os.File
	metaRaw   []byte   // raw mmap backing gens; nil when chunks == 0
	gens      []uint64 // shared per-chunk generations, atomically loaded
	segs      []*os.File
	segChunks int
	chunks    int
}

// release unmaps the generation table and closes every descriptor.
func (st *poolFDState) release() {
	unmapPoolMeta(st.metaRaw)
	st.meta.Close()
	for _, f := range st.segs {
		f.Close()
	}
}

// wireCall is one in-flight request awaiting its response. Calls are
// pooled: each sees exactly one send (from demux or fail) and one
// receive (its caller), so the channel is reusable.
type wireCall struct {
	into []byte // optional destination for the response payload
	ch   chan wireReply
}

// callPool recycles wireCalls so the steady-state request path does not
// allocate a call record and channel per exchange.
var callPool = sync.Pool{New: func() any { return &wireCall{ch: make(chan wireReply, 1)} }}

// wireReply carries a decoded response (or transport error) to a caller.
type wireReply struct {
	status byte
	body   []byte // payload after the status byte (nil when into was used)
	n      int    // bytes stored into the caller's buffer
	err    error
}

// Dial connects to a sponge server over TCP, opens the request stream
// with a hello, and learns the server's chunk size from its reply. A
// client that cannot learn the chunk size would mis-size its frame
// limit and reject valid responses, so any failure here is returned
// rather than papered over.
func Dial(addr string) (*Client, error) { return dialNet("tcp", addr) }

// DialLocal connects to a same-host sponge server over its unix-domain
// socket (see Options.LocalSocketDir and SocketPath). The protocol is
// identical to TCP — framing, pipelining, every op — the connection
// just skips the TCP stack. Additionally, a local client can call
// FetchSpillFD to pread disk-spilled chunks directly.
func DialLocal(socketPath string) (*Client, error) { return dialNet("unix", socketPath) }

func dialNet(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 8<<10),
		fw:      newFrameWriter(conn, 0),
		network: network,
		addr:    addr,
		pending: make(map[uint32]*wireCall),
		done:    make(chan struct{}),
	}
	if err := c.hello(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	go c.demux()
	return c, nil
}

// hello sends the connection's first frame, a version-2 OpHello, and
// takes the chunk size from the reply. A peer that refuses it answers
// StatusBadRequest, surfaced as ErrBadRequest.
func (c *Client) hello() error {
	if err := c.send(0, []byte{OpHello, ProtocolV2}, nil); err != nil {
		return err
	}
	n, _, err := readFrameHeader(c.br, handshakeLimit)
	if err != nil {
		return err
	}
	resp := make([]byte, n)
	if _, err := io.ReadFull(c.br, resp); err != nil {
		return err
	}
	if n >= 1 && resp[0] != StatusOK {
		return fmt.Errorf("hello refused: %w", statusErr(resp[0]))
	}
	if n != helloRespLen || resp[1] < ProtocolV2 {
		return fmt.Errorf("wire: malformed hello response (%d bytes)", n)
	}
	c.chunkSize = int(binary.LittleEndian.Uint32(resp[10:14]))
	return nil
}

// ChunkSize reports the server's chunk size learned at dial time.
func (c *Client) ChunkSize() int { return c.chunkSize }

// Network reports the transport tier this client dialed: "tcp" or
// "unix".
func (c *Client) Network() string { return c.network }

// Close closes the connection (and any passed descriptors) and waits
// for the demux goroutine to fail any in-flight requests and exit.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	if f := c.spillF.Swap(nil); f != nil {
		f.Close()
	}
	if st := c.poolFD.Swap(nil); st != nil {
		st.release()
	}
	return err
}

// fdConn dials the dedicated raw unix connection fd-pass handshakes
// run on: descriptors must land exactly on a recvmsg boundary, which
// the pipelined main connection cannot guarantee.
func (c *Client) fdConn() (*net.UnixConn, error) {
	if c.network != "unix" || !zeroCopyAvailable {
		return nil, errZCUnsupported
	}
	raw, err := net.Dial("unix", c.addr)
	if err != nil {
		return nil, err
	}
	uc, ok := raw.(*net.UnixConn)
	if !ok {
		raw.Close()
		return nil, errZCUnsupported
	}
	return uc, nil
}

// fetchSpillFDOn runs the OpSpillFD exchange on an established fd-pass
// connection and installs the descriptor.
func (c *Client) fetchSpillFDOn(uc *net.UnixConn) error {
	f, err := recvFDOverUnix(uc)
	if err != nil {
		return err
	}
	if old := c.spillF.Swap(f); old != nil {
		old.Close()
	}
	return nil
}

// fetchPoolFDsOn runs the OpPoolFD exchange on an established fd-pass
// connection, maps the generation table, and installs the state.
func (c *Client) fetchPoolFDsOn(uc *net.UnixConn) error {
	meta, segs, g, err := recvPoolFDsOverUnix(uc)
	if err != nil {
		return err
	}
	st := &poolFDState{meta: meta, segs: segs, segChunks: g.segChunks, chunks: g.chunks}
	if g.chunkSize != c.chunkSize || g.segChunks <= 0 || g.chunks < 0 ||
		(g.chunks+g.segChunks-1)/g.segChunks != len(segs) {
		st.release()
		return fmt.Errorf("wire: pool-fd geometry mismatch")
	}
	if st.metaRaw, st.gens, err = mapPoolMeta(meta, g.chunks); err != nil {
		st.release()
		return err
	}
	if old := c.poolFD.Swap(st); old != nil {
		old.release()
	}
	return nil
}

// FetchSpillFD asks the server to pass its spill-file descriptor over
// SCM_RIGHTS, enabling the direct-pread fast path for disk-spilled
// chunks (ReadInto then never moves spilled bytes through the socket).
// Only a unix-socket client on a build with fd-passing can succeed;
// everyone else gets an error and keeps using OpRead, which the server
// serves zero-copy anyway. The handshake runs on its own short-lived
// lock-step connection.
func (c *Client) FetchSpillFD() error {
	uc, err := c.fdConn()
	if err != nil {
		return err
	}
	defer uc.Close()
	return c.fetchSpillFDOn(uc)
}

// FetchPoolFDs asks the server to pass its pool's segment and
// generation-table descriptors over SCM_RIGHTS, enabling the
// direct-pread fast path for pool-resident chunks: ReadInto then
// resolves OpPoolLoc and preads the mapped segment, re-checking the
// shared generation afterwards so a chunk freed or rewritten mid-read
// is transparently retried over the socket. Same preconditions as
// FetchSpillFD; servers whose pool is not file-backed refuse and the
// client keeps using OpRead.
func (c *Client) FetchPoolFDs() error {
	uc, err := c.fdConn()
	if err != nil {
		return err
	}
	defer uc.Close()
	return c.fetchPoolFDsOn(uc)
}

// ArmFDPass arms both direct-pread fast paths — spill file and pool
// segments — over one dedicated lock-step connection (the handshakes
// run back to back; each may be individually refused with
// StatusBadRequest without poisoning the stream). It returns nil when
// at least one path armed; a transport failure or double refusal
// returns the first error.
func (c *Client) ArmFDPass() error {
	uc, err := c.fdConn()
	if err != nil {
		return err
	}
	defer uc.Close()
	spillErr := c.fetchSpillFDOn(uc)
	if spillErr != nil && !errors.Is(spillErr, ErrBadRequest) {
		// Anything but a clean refusal leaves the stream unusable.
		return spillErr
	}
	poolErr := c.fetchPoolFDsOn(uc)
	if spillErr == nil || poolErr == nil {
		return nil
	}
	return spillErr
}

// HasSpillFD reports whether the spill direct-pread fast path is armed.
func (c *Client) HasSpillFD() bool { return c.spillF.Load() != nil }

// HasPoolFD reports whether the pool direct-pread fast path is armed.
func (c *Client) HasPoolFD() bool { return c.poolFD.Load() != nil }

// SpillLoc resolves a spilled chunk's stable region in the server's
// spill file. Servers without a spill tier answer ErrBadRequest.
func (c *Client) SpillLoc(handle int) (off int64, n int, err error) {
	var head [5]byte
	head[0] = OpSpillLoc
	binary.LittleEndian.PutUint32(head[1:], uint32(handle))
	rep, err := c.do(head[:], nil, nil)
	if err != nil {
		return 0, 0, err
	}
	if len(rep.body) != 12 {
		return 0, 0, fmt.Errorf("wire: bad spill-loc response")
	}
	return int64(binary.LittleEndian.Uint64(rep.body[0:8])),
		int(binary.LittleEndian.Uint32(rep.body[8:12])), nil
}

func (c *Client) limit() int {
	// Chunk responses are bounded by the chunk size, but a metrics
	// exposition can be bigger, so the limit never drops below the
	// handshake bound.
	if c.chunkSize+frameSlack > handshakeLimit {
		return c.chunkSize + frameSlack
	}
	return handshakeLimit
}

// fail poisons the connection: the first error sticks, every in-flight
// and future request gets it, and the socket is closed.
func (c *Client) fail(err error) {
	c.pmu.Lock()
	if c.cerr == nil {
		c.cerr = err
	}
	err = c.cerr
	calls := c.pending
	c.pending = make(map[uint32]*wireCall)
	c.pmu.Unlock()
	c.conn.Close()
	for _, call := range calls {
		call.ch <- wireReply{err: err}
	}
}

// demux routes responses to their waiting callers by request ID.
// Responses whose caller supplied a destination buffer are decoded
// straight off the socket into it; others get an exact-size allocation.
func (c *Client) demux() {
	defer close(c.done)
	for {
		n, id, err := readFrameHeader(c.br, c.limit())
		if err != nil {
			c.fail(err)
			return
		}
		if n < 1 {
			c.fail(fmt.Errorf("wire: empty response frame"))
			return
		}
		status, err := c.br.ReadByte()
		if err != nil {
			c.fail(err)
			return
		}
		rest := n - 1
		c.pmu.Lock()
		call := c.pending[id]
		delete(c.pending, id)
		c.pmu.Unlock()
		if call == nil {
			c.fail(fmt.Errorf("wire: response for unknown request %d", id))
			return
		}
		// From here on the call is out of the pending map, so fail()
		// cannot see it: any transport error must be delivered to this
		// caller directly as well.
		rep := wireReply{status: status}
		if call.into != nil && status == StatusOK {
			if rest > len(call.into) {
				// Caller's buffer is too small: the connection is still
				// consistent, so drain the payload and report only to
				// this caller.
				if _, err := io.CopyN(io.Discard, c.br, int64(rest)); err != nil {
					c.fail(err)
					call.ch <- wireReply{err: err}
					return
				}
				rep.err = fmt.Errorf("wire: %w: response is %d bytes, buffer holds %d",
					io.ErrShortBuffer, rest, len(call.into))
			} else if _, err := io.ReadFull(c.br, call.into[:rest]); err != nil {
				c.fail(err)
				call.ch <- wireReply{err: err}
				return
			} else {
				rep.n = rest
			}
		} else {
			body := make([]byte, rest)
			if _, err := io.ReadFull(c.br, body); err != nil {
				c.fail(err)
				call.ch <- wireReply{err: err}
				return
			}
			rep.body = body
		}
		call.ch <- rep
	}
}

// send writes one request frame (header + op header + payload)
// through the batching writer: small frames coalesce with concurrent
// senders' frames into one flush, chunk payloads go to the socket as a
// vectored write without being copied.
func (c *Client) send(id uint32, head, payload []byte) error {
	hp := hdrPool.Get().(*[]byte)
	hdr := append((*hp)[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(head)+len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], id)
	hdr = append(hdr, head...)
	err := c.fw.writeFrame(hdr, payload)
	*hp = hdr[:0]
	hdrPool.Put(hp)
	return err
}

// do performs one pipelined request/response exchange. head is the op
// byte plus fixed fields, payload the bulk data (may be nil), into an
// optional destination for the response payload.
func (c *Client) do(head, payload, into []byte) (wireReply, error) {
	call := callPool.Get().(*wireCall)
	call.into = into
	id := c.nextID.Add(1)
	c.pmu.Lock()
	if c.cerr != nil {
		err := c.cerr
		c.pmu.Unlock()
		call.into = nil
		callPool.Put(call)
		return wireReply{}, err
	}
	c.pending[id] = call
	c.pmu.Unlock()
	if err := c.send(id, head, payload); err != nil {
		c.fail(err) // delivers the error to every pending call, ours included
	}
	rep := <-call.ch
	call.into = nil
	callPool.Put(call)
	if rep.err != nil {
		return wireReply{}, rep.err
	}
	if err := statusErr(rep.status); err != nil {
		return wireReply{}, err
	}
	return rep, nil
}

// AllocWrite allocates a chunk for owner and stores data in it, in one
// exchange, returning the chunk handle. The payload is written straight
// from data (vectored write); it must not be mutated until AllocWrite
// returns.
func (c *Client) AllocWrite(owner sponge.TaskID, data []byte) (int, error) {
	if c.chunkSize > 0 && len(data) > c.chunkSize {
		return 0, fmt.Errorf("wire: payload of %d bytes exceeds chunk size %d: %w",
			len(data), c.chunkSize, ErrBadRequest)
	}
	var head [13]byte
	head[0] = OpAllocWrite
	binary.LittleEndian.PutUint32(head[1:5], uint32(owner.Node))
	binary.LittleEndian.PutUint64(head[5:13], uint64(owner.PID))
	rep, err := c.do(head[:], data, nil)
	if err != nil {
		return 0, err
	}
	if len(rep.body) != 4 {
		return 0, fmt.Errorf("wire: bad alloc response")
	}
	return int(binary.LittleEndian.Uint32(rep.body)), nil
}

// Read fetches a chunk's contents into a fresh buffer sized to the
// chunk's length.
func (c *Client) Read(handle int) ([]byte, error) {
	var head [5]byte
	head[0] = OpRead
	binary.LittleEndian.PutUint32(head[1:], uint32(handle))
	rep, err := c.do(head[:], nil, nil)
	if err != nil {
		return nil, err
	}
	return rep.body, nil
}

// locBufPool recycles the 12-byte destination buffers for the
// OpSpillLoc exchange on the pread fast path.
var locBufPool = sync.Pool{New: func() any { b := make([]byte, 12); return &b }}

// poolLocBufPool does the same for the 24-byte OpPoolLoc responses.
var poolLocBufPool = sync.Pool{New: func() any { b := make([]byte, 24); return &b }}

// poolPreadTestHook, when non-nil, runs between the OpPoolLoc exchange
// and the segment pread — the window the generation check guards. Tests
// use it to free or rewrite the chunk deterministically mid-read.
var poolPreadTestHook func()

// ReadInto fetches a chunk's contents directly into buf, avoiding any
// intermediate allocation (the payload is decoded off the socket
// straight into buf), and returns the byte count. If buf is too
// small the call fails with an error wrapping io.ErrShortBuffer; the
// connection remains usable.
//
// A disk-spilled chunk, when the server's spill-file descriptor has
// been fetched (FetchSpillFD), is pread straight from the file: only
// the 13-byte OpSpillLoc exchange crosses the socket. A pool-resident
// chunk, when the pool descriptors have been fetched (FetchPoolFDs),
// likewise: only the 25-byte OpPoolLoc exchange crosses the socket,
// and a generation mismatch after the pread (chunk freed or rewritten
// mid-read) transparently falls back to OpRead.
func (c *Client) ReadInto(handle int, buf []byte) (int, error) {
	if handle&SpillHandleBit != 0 {
		if f := c.spillF.Load(); f != nil {
			return c.preadSpill(f, handle, buf)
		}
	} else if st := c.poolFD.Load(); st != nil {
		if n, ok, err := c.preadPool(st, handle, buf); ok {
			return n, err
		}
	}
	var head [5]byte
	head[0] = OpRead
	binary.LittleEndian.PutUint32(head[1:], uint32(handle))
	rep, err := c.do(head[:], nil, buf)
	if err != nil {
		return 0, err
	}
	return rep.n, nil
}

// preadPool is the pool-fd fast path: resolve the chunk's segment
// location and generation with OpPoolLoc, pread the mapped segment,
// then re-check the shared generation table. ok=false (with no error)
// sends the caller to the OpRead fallback: the chunk moved under us —
// a write was in progress (odd generation) or the generation changed
// between the lookup and the pread.
func (c *Client) preadPool(st *poolFDState, handle int, buf []byte) (n int, ok bool, err error) {
	if handle < 0 || handle >= st.chunks {
		return 0, false, nil
	}
	var head [5]byte
	head[0] = OpPoolLoc
	binary.LittleEndian.PutUint32(head[1:], uint32(handle))
	bp := poolLocBufPool.Get().(*[]byte)
	rep, err := c.do(head[:], nil, *bp)
	if err != nil {
		poolLocBufPool.Put(bp)
		if errors.Is(err, ErrBadRequest) {
			// A pre-OpPoolLoc server; use the socket path.
			return 0, false, nil
		}
		return 0, true, err
	}
	if rep.n != 24 {
		poolLocBufPool.Put(bp)
		return 0, true, fmt.Errorf("wire: bad pool-loc response")
	}
	seg := int(binary.LittleEndian.Uint32((*bp)[0:4]))
	off := int64(binary.LittleEndian.Uint64((*bp)[4:12]))
	n = int(binary.LittleEndian.Uint32((*bp)[12:16]))
	gen := binary.LittleEndian.Uint64((*bp)[16:24])
	poolLocBufPool.Put(bp)
	if gen&1 == 1 || seg >= len(st.segs) {
		// Odd: a write is mid-copy right now. A bad segment index means
		// our mapping is stale. Either way the socket path has the
		// authoritative bytes.
		c.countGenMiss()
		return 0, false, nil
	}
	if n > len(buf) {
		return 0, true, fmt.Errorf("wire: %w: response is %d bytes, buffer holds %d",
			io.ErrShortBuffer, n, len(buf))
	}
	if h := poolPreadTestHook; h != nil {
		h()
	}
	if n > 0 {
		if _, err := st.segs[seg].ReadAt(buf[:n], off); err != nil {
			return 0, true, err
		}
	}
	if atomic.LoadUint64(&st.gens[handle]) != gen {
		// Freed, reallocated, or rewritten between the lookup and the
		// pread: the copy may be torn. Retry over the socket.
		c.countGenMiss()
		return 0, false, nil
	}
	if c.poolFDOps != nil {
		c.poolFDOps.Inc()
	}
	return n, true, nil
}

// countGenMiss records one generation-check miss (when wired).
func (c *Client) countGenMiss() {
	if c.genMiss != nil {
		c.genMiss.Inc()
	}
}

// preadSpill is the fd-passing fast path: resolve the chunk's stable
// region with OpSpillLoc, then pread it from the passed descriptor.
func (c *Client) preadSpill(f *os.File, handle int, buf []byte) (int, error) {
	var head [5]byte
	head[0] = OpSpillLoc
	binary.LittleEndian.PutUint32(head[1:], uint32(handle))
	bp := locBufPool.Get().(*[]byte)
	rep, err := c.do(head[:], nil, *bp)
	if err != nil {
		locBufPool.Put(bp)
		return 0, err
	}
	if rep.n != 12 {
		locBufPool.Put(bp)
		return 0, fmt.Errorf("wire: bad spill-loc response")
	}
	off := int64(binary.LittleEndian.Uint64((*bp)[0:8]))
	n := int(binary.LittleEndian.Uint32((*bp)[8:12]))
	locBufPool.Put(bp)
	if n > len(buf) {
		return 0, fmt.Errorf("wire: %w: response is %d bytes, buffer holds %d",
			io.ErrShortBuffer, n, len(buf))
	}
	if _, err := f.ReadAt(buf[:n], off); err != nil {
		return 0, err
	}
	return n, nil
}

// Free releases a chunk.
func (c *Client) Free(handle int) error {
	var head [5]byte
	head[0] = OpFree
	binary.LittleEndian.PutUint32(head[1:], uint32(handle))
	_, err := c.do(head[:], nil, nil)
	return err
}

// Stat returns (free chunks, total chunks, chunk size).
func (c *Client) Stat() (free, total, chunkSize int, err error) {
	rep, err := c.do([]byte{OpStat}, nil, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(rep.body) != 12 {
		return 0, 0, 0, fmt.Errorf("wire: bad stat response")
	}
	return int(binary.LittleEndian.Uint32(rep.body[0:4])),
		int(binary.LittleEndian.Uint32(rep.body[4:8])),
		int(binary.LittleEndian.Uint32(rep.body[8:12])), nil
}

// Metrics fetches the daemon's metrics registry rendered in the text
// exposition format. Works against sponge servers and TCP-served
// trackers alike (both share the daemon core); a pre-metrics peer
// answers StatusBadRequest, surfaced as ErrBadRequest.
func (c *Client) Metrics() (string, error) {
	rep, err := c.do([]byte{OpMetrics}, nil, nil)
	if err != nil {
		return "", err
	}
	return string(rep.body), nil
}

// Ping reports whether pid is alive on the server's node.
func (c *Client) Ping(pid uint64) (bool, error) {
	var head [9]byte
	head[0] = OpPing
	binary.LittleEndian.PutUint64(head[1:], pid)
	rep, err := c.do(head[:], nil, nil)
	if err != nil {
		return false, err
	}
	return len(rep.body) == 1 && rep.body[0] == 1, nil
}

// Register marks pid live on the server's node.
func (c *Client) Register(pid uint64) error {
	return c.pidOp(OpRegister, pid)
}

// Unregister marks pid dead on the server's node.
func (c *Client) Unregister(pid uint64) error {
	return c.pidOp(OpUnregister, pid)
}

func (c *Client) pidOp(op byte, pid uint64) error {
	var head [9]byte
	head[0] = op
	binary.LittleEndian.PutUint64(head[1:], pid)
	_, err := c.do(head[:], nil, nil)
	return err
}

// ClientPool fans requests out over several pipelined connections to
// one server, for callers whose concurrency outgrows a single socket.
// Connections are handed out round-robin; all Client methods are
// mirrored for convenience.
type ClientPool struct {
	clients []*Client
	next    atomic.Uint32
}

// DialPool dials n connections to a sponge server. n < 1 is treated
// as 1.
func DialPool(addr string, n int) (*ClientPool, error) {
	if n < 1 {
		n = 1
	}
	p := &ClientPool{clients: make([]*Client, 0, n)}
	for i := 0; i < n; i++ {
		c, err := Dial(addr)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.clients = append(p.clients, c)
	}
	return p, nil
}

// Get returns one of the pool's connections, round-robin.
func (p *ClientPool) Get() *Client {
	return p.clients[int(p.next.Add(1)-1)%len(p.clients)]
}

// Size returns the number of pooled connections.
func (p *ClientPool) Size() int { return len(p.clients) }

// ChunkSize reports the server's chunk size.
func (p *ClientPool) ChunkSize() int { return p.clients[0].chunkSize }

// Close closes every pooled connection, returning the first error.
func (p *ClientPool) Close() error {
	var first error
	for _, c := range p.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AllocWrite allocates and fills a chunk via one pooled connection.
func (p *ClientPool) AllocWrite(owner sponge.TaskID, data []byte) (int, error) {
	return p.Get().AllocWrite(owner, data)
}

// Read fetches a chunk via one pooled connection.
func (p *ClientPool) Read(handle int) ([]byte, error) { return p.Get().Read(handle) }

// ReadInto fetches a chunk into buf via one pooled connection.
func (p *ClientPool) ReadInto(handle int, buf []byte) (int, error) {
	return p.Get().ReadInto(handle, buf)
}

// Free releases a chunk via one pooled connection.
func (p *ClientPool) Free(handle int) error { return p.Get().Free(handle) }

// Stat returns the server's pool state via one pooled connection.
func (p *ClientPool) Stat() (free, total, chunkSize int, err error) { return p.Get().Stat() }
