package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"spongefiles/internal/obs"
)

// defaultInflight is the default per-connection worker-pool bound: how
// many requests one connection may have executing at once. The
// reader stops pulling frames when all workers are busy, so it doubles
// as backpressure.
const defaultInflight = 16

// Options tunes a wire daemon (the sponge server and the TCP-served
// tracker share them). The zero value reproduces the historical
// behaviour: 16 in-flight requests per connection, no I/O deadlines, an
// internal liveness registry, TCP only, and no disk-spill tier.
type Options struct {
	// Inflight bounds the per-connection worker pool; 0 means the
	// default (16).
	Inflight int
	// ReadTimeout is the per-frame read deadline: a connection that
	// sends no complete frame for this long is dropped. 0 disables it.
	ReadTimeout time.Duration
	// WriteTimeout is the deadline applied to each response write or
	// flush. 0 disables it.
	WriteTimeout time.Duration
	// Liveness, when non-nil, replaces the sponge server's internal
	// task-liveness registry, so one registry can back both the
	// in-process (simulated) path and the TCP path. Ignored by the
	// tracker daemon.
	Liveness Liveness
	// Metrics, when non-nil, is the registry this daemon instruments
	// itself into and serves over OpMetrics; nil means a private
	// registry. Several daemons in one process may share a registry —
	// their series are distinguished by the listen-address label.
	Metrics *obs.Registry
	// LocalSocketDir, when non-empty, adds a same-host listener: a
	// unix-domain socket at SocketPath(dir, tcpAddr) speaking the exact
	// same protocol, so co-located clients skip the TCP stack. A stale
	// socket file from a dead daemon is replaced at startup; the file is
	// removed again on Close.
	LocalSocketDir string
	// SpillDir, when non-empty, gives the sponge server a disk tier: an
	// append-coalesced spill file in that directory absorbs AllocWrites
	// that find the memory pool full, and reads of those chunks are
	// served zero-copy (sendfile on linux, buffered elsewhere). Ignored
	// by the tracker daemon.
	SpillDir string
	// SpillChunks caps the live chunks in the spill file; 0 = unbounded.
	SpillChunks int
	// NoZeroCopy forces the portable buffered fallback for spill-file
	// responses even where sendfile is available, and stops the server
	// answering OpSpillFD. Benchmark and CI control — it exercises the
	// non-linux code path on any OS.
	NoZeroCopy bool
	// Trackers lists replicated tracker addresses this sponge server
	// pushes OpFreeDelta reports to when its free count changes. The
	// reporter finds the leader by rotation: a standby answers "not the
	// leader" and the reporter moves to the next address. Empty
	// disables delta reporting (trackers then rely on polling).
	// Ignored by the tracker daemon.
	Trackers []string
	// ReportInterval is the delta reporter's check period; 0 means 1s.
	ReportInterval time.Duration
	// AdvertiseAddr is how trackers should name this server in their
	// free lists; "" means the server's own TCP listen address.
	AdvertiseAddr string
}

func (o Options) inflight() int {
	if o.Inflight > 0 {
		return o.Inflight
	}
	return defaultInflight
}

// SocketPath derives the well-known unix-socket path for a daemon from
// its TCP listen address: "sponge-<port>.sock" under dir. Deriving the
// name from the port lets a client that only knows a peer's TCP address
// discover the same-host socket without any extra coordination.
func SocketPath(dir, tcpAddr string) (string, error) {
	_, port, err := net.SplitHostPort(tcpAddr)
	if err != nil {
		return "", fmt.Errorf("wire: socket path for %q: %w", tcpAddr, err)
	}
	return filepath.Join(dir, "sponge-"+port+".sock"), nil
}

// Liveness is the task-liveness registry a sponge server consults for
// OpPing and mutates for OpRegister/OpUnregister. Implementations must
// be safe for concurrent use: requests dispatch through a concurrent
// worker pool.
type Liveness interface {
	Register(pid uint64)
	Unregister(pid uint64)
	Alive(pid uint64) bool
}

// mapLiveness is the default internal registry.
type mapLiveness struct {
	mu   sync.Mutex
	live map[uint64]bool
}

func newMapLiveness() *mapLiveness { return &mapLiveness{live: make(map[uint64]bool)} }

func (m *mapLiveness) Register(pid uint64) {
	m.mu.Lock()
	m.live[pid] = true
	m.mu.Unlock()
}

func (m *mapLiveness) Unregister(pid uint64) {
	m.mu.Lock()
	delete(m.live, pid)
	m.mu.Unlock()
}

func (m *mapLiveness) Alive(pid uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live[pid]
}

// fileRef points a response's payload at a spill-file region served
// straight from the descriptor: the status byte travels inline and the
// n payload bytes go out via sendfile (or the buffered fallback)
// without ever visiting user space. The zero value means "inline
// response" — the normal case.
type fileRef struct {
	f   *os.File
	off int64
	n   int64
}

// daemon is the connection-serving core shared by the sponge server and
// the TCP tracker: it accepts connections on every listener (TCP,
// optionally a same-host unix socket), lets each connection's first
// frame pick its role (pipelined requests or descriptor exchange), and
// feeds every pipelined request through the owner's dispatch function.
// Responses may come from the recycled-buffer pool; dispatch results
// are handed back to recycle after writing. A dispatch may
// alternatively return a fileRef, in which case the payload is served
// zero-copy from the file.
type daemon struct {
	lns       []net.Listener
	localPath string // unix socket path, "" when TCP-only
	opts      Options

	// frameLimit bounds inbound frames; helloResp builds the OpHello
	// reply; dispatch executes one request body.
	frameLimit int
	helloResp  func() []byte
	dispatch   func(req []byte) ([]byte, fileRef)
	// sendFD, when non-nil, answers OpSpillFD on a unix connection by
	// passing the spill-file descriptor over SCM_RIGHTS. Wired by the
	// sponge server when it has a spill tier; nil answers
	// StatusBadRequest. sendPoolFD does the same for OpPoolFD with the
	// pool's segment descriptors.
	sendFD     func(conn net.Conn, id uint32) error
	sendPoolFD func(conn net.Conn, id uint32) error

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	// metrics is the registry served over OpMetrics; opReqs are the
	// per-op request counters (indexed by op code), badReqs counts
	// frames whose op is unknown or empty. All series carry a listen
	// label so daemons sharing one registry stay distinguishable.
	metrics   *obs.Registry
	opReqs    [opMax + 1]*obs.Counter
	badReqs   *obs.Counter
	connsSeen [2]*obs.Counter // indexed by connTier
	connsOpen *obs.Gauge
	zcBytes   *obs.Counter // payload bytes served via sendfile
	zcFallbk  *obs.Counter // file responses that took the buffered path
	fdFail    *obs.Counter // fd-pass handshakes refused or failed

	// bufs recycles chunk-size-class request and response buffers so the
	// steady-state hot path does not allocate. small does the same for
	// header-size exchanges (spill_loc on the fd-passing fast path runs
	// nothing but 13-byte responses).
	bufs  sync.Pool
	small sync.Pool

	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    chan struct{}
}

// connTier indexes connsSeen: which listener a connection arrived on.
const (
	connTCP = iota
	connUnix
)

// minRecycledBuf is the smallest buffer worth pooling in the chunk
// class; smallRecycledBuf is the fixed capacity of the small class that
// keeps header-size requests and responses (≤ 64 bytes: alloc_write and
// stat replies, spill_loc exchanges) off the allocator too. Buffers
// between the two classes are cheaper to allocate than to pool.
const (
	minRecycledBuf   = 1 << 10
	smallRecycledBuf = 64
)

// opNames maps op codes to the label values used in the daemon's
// per-op request counters. A blank entry means "not a real op".
var opNames = [opMax + 1]string{
	OpAllocWrite:   "alloc_write",
	OpRead:         "read",
	OpFree:         "free",
	OpStat:         "stat",
	OpPing:         "ping",
	OpRegister:     "register",
	OpUnregister:   "unregister",
	OpHello:        "hello",
	OpFreeList:     "free_list",
	OpMetrics:      "metrics",
	OpSpillLoc:     "spill_loc",
	OpSpillFD:      "spill_fd",
	OpPoolLoc:      "pool_loc",
	OpPoolFD:       "pool_fd",
	OpFreeDelta:    "free_delta",
	OpTrackerState: "tracker_state",
	OpTrackerInfo:  "tracker_info",
}

// startDaemon listens on addr (plus the derived unix socket when
// opts.LocalSocketDir is set) and begins accepting connections.
func startDaemon(addr string, opts Options, frameLimit int, helloResp func() []byte, dispatch func([]byte) ([]byte, fileRef)) (*daemon, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		lns:        []net.Listener{ln},
		opts:       opts,
		frameLimit: frameLimit,
		helloResp:  helloResp,
		dispatch:   dispatch,
		conns:      make(map[net.Conn]struct{}),
		closed:     make(chan struct{}),
	}
	if opts.LocalSocketDir != "" {
		path, err := SocketPath(opts.LocalSocketDir, ln.Addr().String())
		if err != nil {
			ln.Close()
			return nil, err
		}
		if err := os.MkdirAll(opts.LocalSocketDir, 0o700); err != nil {
			ln.Close()
			return nil, fmt.Errorf("wire: local socket dir: %w", err)
		}
		// A crashed daemon leaves its socket file behind; nothing can be
		// listening on this port-derived path but us, so replace it.
		os.Remove(path)
		uln, err := net.Listen("unix", path)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("wire: local socket: %w", err)
		}
		d.lns = append(d.lns, uln)
		d.localPath = path
	}
	d.metrics = opts.Metrics
	if d.metrics == nil {
		d.metrics = obs.NewRegistry()
	}
	listen := obs.L("listen", ln.Addr().String())
	for op, name := range opNames {
		if name == "" {
			continue
		}
		d.opReqs[op] = d.metrics.Counter("spongewire_requests_total", obs.L("op", name), listen)
	}
	d.badReqs = d.metrics.Counter("spongewire_bad_requests_total", listen)
	d.connsSeen[connTCP] = d.metrics.Counter("spongewire_connections_total", obs.L("tier", "tcp"), listen)
	d.connsSeen[connUnix] = d.metrics.Counter("spongewire_connections_total", obs.L("tier", "unix"), listen)
	d.connsOpen = d.metrics.Gauge("spongewire_open_connections", listen)
	d.zcBytes = d.metrics.Counter("spongewire_serve_zero_copy_bytes_total", listen)
	d.zcFallbk = d.metrics.Counter("spongewire_serve_zero_copy_fallback_total", listen)
	d.fdFail = d.metrics.Counter("spongewire_fdpass_fail_total", listen)
	for _, l := range d.lns {
		d.wg.Add(1)
		go d.acceptLoop(l)
	}
	return d, nil
}

// countOp records one inbound request frame in the per-op counters.
func (d *daemon) countOp(req []byte) {
	if len(req) > 0 {
		if op := int(req[0]); op < len(d.opReqs) && d.opReqs[op] != nil {
			d.opReqs[op].Inc()
			return
		}
	}
	d.badReqs.Inc()
}

// metricsResponse renders the daemon's registry as an OpMetrics reply:
// a StatusOK byte followed by the text exposition.
func (d *daemon) metricsResponse() []byte {
	var b bytes.Buffer
	b.WriteByte(StatusOK)
	d.metrics.WriteText(&b)
	return b.Bytes()
}

// addr returns the TCP listening address.
func (d *daemon) addr() string { return d.lns[0].Addr().String() }

// localSocket returns the unix socket path, or "" when TCP-only.
func (d *daemon) localSocket() string { return d.localPath }

// close stops every listener (removing the unix socket file), closes
// every live connection, and waits for their handlers. Safe to call
// more than once.
func (d *daemon) close() error {
	var err error
	d.closeOnce.Do(func() {
		close(d.closed)
		for _, ln := range d.lns {
			if cerr := ln.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		d.mu.Lock()
		for conn := range d.conns {
			conn.Close()
		}
		d.mu.Unlock()
	})
	d.wg.Wait()
	return err
}

func (d *daemon) acceptLoop(ln net.Listener) {
	defer d.wg.Done()
	tier := connTCP
	if _, ok := ln.(*net.UnixListener); ok {
		tier = connUnix
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-d.closed:
				return
			default:
				log.Printf("wire: accept: %v", err)
				return
			}
		}
		d.mu.Lock()
		select {
		case <-d.closed:
			d.mu.Unlock()
			conn.Close()
			return
		default:
		}
		d.conns[conn] = struct{}{}
		d.mu.Unlock()
		d.connsSeen[tier].Inc()
		d.connsOpen.Add(1)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			defer conn.Close()
			defer func() {
				d.mu.Lock()
				delete(d.conns, conn)
				d.mu.Unlock()
				d.connsOpen.Add(-1)
			}()
			d.handle(conn)
		}()
	}
}

// sliceHdrPool recycles the *[]byte boxes that carry buffers through
// d.bufs. Boxing a local slice header at each recycle (`Put(&b)`) would
// heap-allocate per request; instead the boxes cycle between the two
// pools — getBuf unboxes and returns the empty box, recycle takes a box
// back out to wrap the buffer.
var sliceHdrPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns a buffer of exactly need bytes, reusing a recycled one
// when it is big enough. When the pool is empty (or only holds smaller
// buffers) the fallback allocation is sized to need — the actual chunk
// length — never to the full chunk size.
func (d *daemon) getBuf(need int) []byte {
	pool := &d.bufs
	if need <= smallRecycledBuf {
		pool = &d.small
	}
	if v := pool.Get(); v != nil {
		p := v.(*[]byte)
		b := *p
		*p = nil
		sliceHdrPool.Put(p)
		if cap(b) >= need {
			return b[:need]
		}
	}
	if need <= smallRecycledBuf {
		return make([]byte, need, smallRecycledBuf)
	}
	return make([]byte, need)
}

// recycle returns a buffer to its size-class pool for reuse. Buffers
// between the small and chunk classes are dropped.
func (d *daemon) recycle(b []byte) {
	pool := &d.bufs
	switch {
	case cap(b) >= minRecycledBuf:
	case cap(b) == smallRecycledBuf:
		pool = &d.small
	default:
		return
	}
	p := sliceHdrPool.Get().(*[]byte)
	*p = b[:cap(b)]
	pool.Put(p)
}

// armRead applies the per-frame read deadline, when configured.
func (d *daemon) armRead(conn net.Conn) {
	if d.opts.ReadTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(d.opts.ReadTimeout))
	}
}

// writeFile sends one StatusOK response whose payload lives in the
// spill file, preferring sendfile and accounting the outcome. The
// status byte is folded into the header write so the payload needs no
// user-space staging at all.
func (d *daemon) writeFile(fw *frameWriter, id uint32, fr fileRef) error {
	hp := hdrPool.Get().(*[]byte)
	hdr := append((*hp)[:0], 0, 0, 0, 0, 0, 0, 0, 0, StatusOK)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(1+fr.n))
	binary.LittleEndian.PutUint32(hdr[4:8], id)
	zc, err := fw.writeFrameFile(hdr, fr, d.opts.NoZeroCopy)
	*hp = hdr[:0]
	hdrPool.Put(hp)
	if zc > 0 {
		d.zcBytes.Add(zc)
	} else {
		d.zcFallbk.Inc()
	}
	return err
}

// handle reads a connection's first frame, which picks the
// connection's role: a version-2 hello opens the pipelined request
// stream, an fd op opens the lock-step descriptor-exchange stream, and
// anything else is refused and the connection dropped. All writes flow
// through one batching frame writer.
func (d *daemon) handle(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 32<<10)
	fw := newFrameWriter(conn, d.opts.WriteTimeout)
	d.armRead(conn)
	id, req, err := d.readRequest(br)
	if err != nil {
		// A peer that hangs up (or idles out) before its first frame is
		// not misbehaving; a truncated or oversized frame is.
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, errFrameTooLarge) {
			d.badReqs.Inc()
		}
		return
	}
	switch {
	case len(req) == 2 && req[0] == OpHello && req[1] >= ProtocolV2:
		d.recycle(req)
		d.opReqs[OpHello].Inc()
		if sendFrame(fw, id, d.helloResp()) == nil {
			d.serveRequests(conn, br, fw)
		}
	case isFDOp(req):
		op := req[0]
		d.recycle(req)
		d.serveFD(conn, br, fw, id, op)
	default:
		d.recycle(req)
		d.badReqs.Inc()
		sendFrame(fw, id, []byte{StatusBadRequest})
	}
}

// isFDOp reports whether req is a descriptor-exchange request.
func isFDOp(req []byte) bool {
	return len(req) == 1 && (req[0] == OpSpillFD || req[0] == OpPoolFD)
}

// readRequest reads one whole frame into a recycled buffer, which the
// caller hands back to recycle.
func (d *daemon) readRequest(br *bufio.Reader) (uint32, []byte, error) {
	n, id, err := readFrameHeader(br, d.frameLimit)
	if err != nil {
		return 0, nil, err
	}
	req := d.getBuf(n)
	if _, err := io.ReadFull(br, req); err != nil {
		d.recycle(req)
		return 0, nil, err
	}
	return id, req, nil
}

// serveFD runs a descriptor-exchange stream, starting with its first
// request (id, op). Descriptor passing happens outside the frame
// writer: the exchange owns the connection (lock-step, nothing
// buffered) and the descriptors must ride their own sendmsg. A refused
// op is answered StatusBadRequest and the stream stays open — a client
// arms spill and pool passing back to back on one stream — but any
// other op ends it.
func (d *daemon) serveFD(conn net.Conn, br *bufio.Reader, fw *frameWriter, id uint32, op byte) {
	for {
		d.opReqs[op].Inc()
		send := d.sendFD
		if op == OpPoolFD {
			send = d.sendPoolFD
		}
		refused := true
		if send != nil && !d.opts.NoZeroCopy {
			switch err := send(conn, id); err {
			case nil:
				refused = false
			case errZCUnsupported:
				// TCP connection, heap-backed pool, or portable build:
				// degrade to the plain refusal below, stream intact.
			default:
				d.fdFail.Inc()
				return // a half-written handshake poisons the stream
			}
		}
		if refused {
			d.fdFail.Inc()
			if sendFrame(fw, id, []byte{StatusBadRequest}) != nil {
				return
			}
		}
		d.armRead(conn)
		next, req, err := d.readRequest(br)
		if err != nil {
			return
		}
		fd := isFDOp(req)
		if fd {
			op = req[0]
		}
		d.recycle(req)
		if !fd {
			d.badReqs.Inc()
			sendFrame(fw, next, []byte{StatusBadRequest})
			return
		}
		id = next
	}
}

// pipeReq is one pipelined request handed from the connection reader
// to a worker.
type pipeReq struct {
	id  uint32
	req []byte
}

// serveRequests runs a pipelined request stream: the reader pulls
// frames and hands each to one of Options.Inflight long-lived workers;
// workers dispatch and write their response — tagged with the request
// ID — in completion order through the connection's batching writer,
// which coalesces small responses into one flush when several workers
// finish together. The workers are spawned once per connection and fed
// over an unbuffered channel, so the steady state neither allocates nor
// spawns: the reader blocks handing off when all workers are busy,
// which is the same backpressure the old per-request semaphore gave.
func (d *daemon) serveRequests(conn net.Conn, br *bufio.Reader, fw *frameWriter) {
	work := make(chan pipeReq)
	var wg sync.WaitGroup
	for i := 0; i < d.opts.inflight(); i++ {
		wg.Add(1)
		go d.requestWorker(conn, fw, work, &wg)
	}
	defer func() {
		close(work)
		wg.Wait()
	}()
	for {
		d.armRead(conn)
		id, req, err := d.readRequest(br)
		if err != nil {
			return
		}
		if len(req) < 1 {
			d.recycle(req)
			return
		}
		d.countOp(req)
		work <- pipeReq{id: id, req: req}
	}
}

// requestWorker serves one slot of a connection's pipelined worker pool.
func (d *daemon) requestWorker(conn net.Conn, fw *frameWriter, work chan pipeReq, wg *sync.WaitGroup) {
	defer wg.Done()
	for w := range work {
		var resp []byte
		var fr fileRef
		if len(w.req) == 1 && w.req[0] == OpMetrics {
			resp = d.metricsResponse()
		} else {
			resp, fr = d.dispatch(w.req)
		}
		d.recycle(w.req)
		var err error
		if fr.f != nil {
			err = d.writeFile(fw, w.id, fr)
		} else {
			err = sendFrame(fw, w.id, resp)
			d.recycle(resp)
		}
		if err != nil {
			conn.Close() // unblocks the reader; the connection is gone
		}
	}
}
