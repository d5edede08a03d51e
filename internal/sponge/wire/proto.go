// Package wire implements the sponge server's network protocol over real
// TCP: the interface a production deployment exposes so remote tasks can
// allocate, write, read and free chunks in a node's sponge memory, query
// free space, and check task liveness (the paper's sponge server,
// §3.1.1, as an actual daemon rather than a simulated one).
//
// The same protocol runs over two transports. Every daemon listens on
// TCP; with Options.LocalSocketDir set it additionally listens on a
// per-node unix-domain socket (SocketPath derives the path from the TCP
// port), so co-located tasks — many map/reduce tasks per node is the
// paper's own layout — exchange chunks without the TCP stack. The
// framing is identical on both; clients pick the tier at dial time
// (Dial for TCP, DialLocal for the socket) and wire.Transport selects
// automatically for peers that resolve to the caller's own host,
// falling back to TCP when the socket is missing or stale.
//
// The protocol has one framing, used for every frame of every
// connection:
//
//	frame         := length(u32 LE, bytes after requestID) requestID(u32 LE) body
//	request  body := op(u8) payload
//	response body := status(u8) payload
//
// A connection's first frame picks its role:
//
//   - OpHello carrying version 2 or later: the server answers StatusOK plus its
//     version and pool geometry, and the connection becomes a pipelined
//     request stream. The request ID multiplexes any number of
//     concurrent requests: the client demultiplexes responses back to
//     waiting callers by ID, and the server dispatches requests through
//     a bounded worker pool while serializing frame writes, so
//     responses may arrive in any order.
//   - OpSpillFD or OpPoolFD: the connection becomes a lock-step
//     descriptor-exchange stream that accepts only those two ops. A
//     refused op keeps the stream open, so a client can try both.
//   - Anything else, a hello with another version included: the server
//     answers StatusBadRequest and drops the connection.
//
// Hot-path frames travel as vectored writes (net.Buffers) — header and
// chunk payload are never coalesced into one allocation — and both
// sides recycle chunk-sized buffers.
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
	"time"
)

// ProtocolV2 is the protocol version a client offers in its hello; a
// server refuses a hello carrying any earlier version.
const ProtocolV2 = 2

// Op codes.
const (
	// OpAllocWrite allocates a chunk for a task and stores its data in
	// one exchange. Payload: owner node (u32), owner pid (u64), data.
	// Response payload: handle (u32).
	OpAllocWrite byte = iota + 1
	// OpRead fetches a chunk. Payload: handle (u32). Response: data.
	OpRead
	// OpFree releases a chunk. Payload: handle (u32).
	OpFree
	// OpStat asks for pool state. Response: free chunks (u32), total
	// chunks (u32), chunk size (u32).
	OpStat
	// OpPing checks task liveness (garbage collection, §3.1.3).
	// Payload: pid (u64). Response: alive (u8).
	OpPing
	// OpRegister marks a task live on this node. Payload: pid (u64).
	OpRegister
	// OpUnregister marks a task dead. Payload: pid (u64).
	OpUnregister
	// OpHello opens a pipelined request stream; only valid as a
	// connection's first request. Payload: version (u8). Response:
	// version (u8), free chunks (u32), total chunks (u32), chunk size
	// (u32) — the stat fields spare dialers a second round trip.
	OpHello
	// OpFreeList asks a TCP-served tracker for its latest free list.
	// Response: entry count (u16), then per entry free chunks (u32),
	// address length (u16), address bytes. Sponge servers answer
	// StatusBadRequest (their reply to any unknown op), which is also
	// what a pre-FreeList peer answers — callers degrade gracefully.
	OpFreeList
	// OpMetrics asks a daemon for its metrics registry rendered in the
	// text exposition format. Response: UTF-8 text. Answered by the
	// daemon core itself, so sponge servers and TCP-served trackers
	// expose metrics identically; pre-metrics peers answer
	// StatusBadRequest and scrapers degrade gracefully.
	OpMetrics
	// OpSpillLoc asks where a disk-spilled chunk lives in the server's
	// append-coalesced spill file. Payload: handle (u32, SpillHandleBit
	// set). Response: offset (u64), length (u32). Clients holding the
	// spill-file descriptor (OpSpillFD) pread the payload themselves —
	// the bytes never cross the socket. Servers without a spill tier
	// answer StatusBadRequest.
	OpSpillLoc
	// OpSpillFD asks the server to pass its spill-file descriptor over
	// SCM_RIGHTS. Only answered on a unix-socket connection opened by an
	// fd op (the descriptor-exchange stream): the response frame is
	// [StatusOK, b] where the final byte b travels in a sendmsg carrying
	// the descriptor as ancillary data (fd-passing needs a recvmsg
	// boundary, which the dedicated lock-step connection guarantees).
	// TCP connections, spill-less servers, and non-linux builds answer a
	// plain StatusBadRequest frame and callers degrade to OpRead.
	OpSpillFD
	// OpPoolLoc asks where a pool-resident chunk lives in the server's
	// memfd-backed segments. Payload: handle (u32, SpillHandleBit
	// clear). Response: segment index (u32), byte offset within the
	// segment (u64), length (u32), generation (u64). Clients holding
	// the segment descriptors (OpPoolFD) pread the payload themselves
	// and accept it only if the shared generation table still shows the
	// returned (even) generation afterwards; a mismatch means the chunk
	// was freed or rewritten mid-read and the client retries via OpRead.
	OpPoolLoc
	// OpPoolFD asks the server to pass its pool's memory-file
	// descriptors over SCM_RIGHTS: the generation table first, then
	// every segment in index order. Like OpSpillFD it is only answered
	// on a unix-socket descriptor-exchange stream: the response frame is
	// [StatusOK, nfds] and the descriptors ride one sendmsg
	// whose 12-byte data payload carries the pool geometry
	// (segment-chunk capacity u32, chunk count u32, chunk size u32).
	// TCP connections, heap-backed pools, non-linux builds, and pools
	// too large for one SCM_RIGHTS message answer a plain
	// StatusBadRequest frame; callers degrade to OpRead.
	OpPoolFD
	// OpFreeDelta pushes one sequence-numbered incremental free-space
	// report from a sponge server to a tracker (the delta-dissemination
	// successor of the tracker's full OpStat poll). Payload: sequence
	// (u64), free chunks (u32), address length (u16), address bytes —
	// the address is how the tracker should name the reporting server
	// in its free list. Response: applied (u8: 1 applied, 0 stale/
	// retired). A standby tracker answers StatusBadRequest ("not the
	// leader") and the reporter rotates to the next tracker address;
	// sponge servers and pre-delta trackers answer the same, so
	// misdirected reports degrade gracefully.
	OpFreeDelta
	// OpTrackerState hands a tracker leader's state off to a standby:
	// leader epoch (u64), entry count (u16), then per entry free chunks
	// (u32), acked delta sequence (u64), address length (u16), address
	// bytes. Response: status only. Only standbys accept it — a leader
	// answers StatusBadRequest, which tells a stale ex-leader (or a
	// misconfigured peer) that the receiver is not following it.
	OpTrackerState
	// OpTrackerInfo asks a tracker for its role and leadership term.
	// Response: leader epoch (u64), leader flag (u8). Clients use it to
	// find the current leader among a replicated tracker group; any
	// other daemon answers StatusBadRequest.
	OpTrackerInfo
)

// opMax is the highest op code, sizing per-op tables.
const opMax = OpTrackerInfo

// SpillHandleBit distinguishes disk-spilled chunk handles from pool
// handles in the shared u32 handle space: pool handles index chunk
// slots (far below 2^31), spill handles index the server's spill-file
// record table with this bit set.
const SpillHandleBit = 1 << 31

// Status codes.
const (
	StatusOK byte = iota
	StatusNoFreeChunk
	StatusQuotaExceeded
	StatusBadRequest
	StatusChunkLost
)

// Errors mapped from response statuses.
var (
	ErrNoFreeChunk   = errors.New("wire: no free chunk")
	ErrQuotaExceeded = errors.New("wire: quota exceeded")
	ErrChunkLost     = errors.New("wire: chunk lost")
	ErrBadRequest    = errors.New("wire: bad request")
)

// frameSlack bounds a frame to chunk size plus protocol overhead;
// connections sending more are dropped.
const frameSlack = 64

// handshakeLimit bounds frames read before the peer's chunk size is
// known (a hello response is a few bytes).
const handshakeLimit = 1 << 20

// helloRespLen is the body of a successful hello response: status,
// version, free (u32), total (u32), chunk size (u32).
const helloRespLen = 14

// errFrameTooLarge marks a frame header announcing more bytes than the
// reader's limit allows.
var errFrameTooLarge = errors.New("wire: frame exceeds limit")

// hdrPool recycles the small scratch buffers that carry frame headers
// (and request op headers) into vectored writes.
var hdrPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// directWriteMin is the payload size at which a frame bypasses the
// batching writer and goes to the socket as a vectored write: copying
// that much into the write buffer would cost more than the syscall it
// saves.
const directWriteMin = 4 << 10

// frameWriter serializes frame writes to one connection and batches
// small frames group-commit style: while other writers are queued on
// the lock the bytes stay buffered, and whoever leaves the queue last
// flushes. Large payloads skip the buffer entirely (vectored write), so
// chunk data is never copied. The zero value is not usable; call
// newFrameWriter.
type frameWriter struct {
	conn net.Conn
	bw   *bufio.Writer
	wto  time.Duration // per-write deadline; 0 = none
	mu   sync.Mutex
	q    atomic.Int32 // writers queued or writing
	err  error        // sticky; guarded by mu

	// zc drives sendfile for file-region payloads; built lazily on the
	// first such payload, dropped back to nil (with zcOff) when the
	// connection turns out not to support it. Guarded by mu.
	zc    *zeroCopier
	zcOff bool

	// vec is the reusable scratch vector for direct vectored writes;
	// guarded by mu.
	vec net.Buffers
}

func newFrameWriter(conn net.Conn, writeTimeout time.Duration) *frameWriter {
	return &frameWriter{conn: conn, bw: bufio.NewWriterSize(conn, 64<<10), wto: writeTimeout}
}

// writeFrame queues one frame (pre-built header plus optional payload)
// and flushes unless another writer is about to enter. Errors are
// sticky: once the connection fails every later write reports it.
func (w *frameWriter) writeFrame(hdr, payload []byte) error {
	w.q.Add(1)
	w.mu.Lock()
	err := w.err
	if err == nil && w.wto > 0 {
		err = w.conn.SetWriteDeadline(time.Now().Add(w.wto))
	}
	if err == nil {
		if len(payload) >= directWriteMin {
			// Flush whatever small frames are pending, then hand the
			// payload straight to the kernel as a vectored write.
			if err = w.bw.Flush(); err == nil {
				err = w.writeFrameVec(hdr, payload)
			}
		} else {
			_, err = w.bw.Write(hdr)
			if err == nil && len(payload) > 0 {
				_, err = w.bw.Write(payload)
			}
		}
	}
	if w.q.Add(-1) == 0 && err == nil && w.bw.Buffered() > 0 {
		err = w.bw.Flush()
	}
	if err != nil && w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	return err
}

// copyBufPool recycles the scratch buffers the buffered fallback uses
// when a file-region payload cannot go out via sendfile.
var copyBufPool = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// writeFrameFile queues one frame whose payload lives in a file region:
// the pre-built header (frame header plus status byte) goes through the
// write buffer, which is then flushed so the payload can follow via
// sendfile — or, when the connection refuses zero-copy or noZC forces
// the portable path, via a pooled pread+write loop. Returns the payload
// bytes that moved zero-copy (0 on the buffered path).
func (w *frameWriter) writeFrameFile(hdr []byte, fr fileRef, noZC bool) (int64, error) {
	w.q.Add(1)
	w.mu.Lock()
	err := w.err
	if err == nil && w.wto > 0 {
		err = w.conn.SetWriteDeadline(time.Now().Add(w.wto))
	}
	if err == nil {
		_, err = w.bw.Write(hdr)
	}
	if err == nil {
		// The payload bypasses the buffer, so everything queued ahead of
		// it must hit the socket first.
		err = w.bw.Flush()
	}
	var zc int64
	if err == nil {
		if !noZC && !w.zcOff {
			if w.zc == nil {
				if w.zc = newZeroCopier(w.conn); w.zc == nil {
					w.zcOff = true
				}
			}
			if w.zc != nil {
				zc, err = w.zc.sendFile(fr.f, fr.off, fr.n)
				if err == errZCUnsupported {
					// First sendfile on this connection refused with no
					// bytes moved: remember and fall back for good.
					err = nil
					w.zc = nil
					w.zcOff = true
				}
			}
		}
		if err == nil && zc < fr.n {
			err = copyFileRange(w.conn, fr.f, fr.off+zc, fr.n-zc)
		}
	}
	w.q.Add(-1)
	if err != nil && w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	return zc, err
}

// copyFileRange is the portable file-payload path: pread into a pooled
// scratch buffer, write to the connection, repeat.
func copyFileRange(dst io.Writer, f *os.File, off, n int64) error {
	bp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bp)
	buf := *bp
	for n > 0 {
		c := int64(len(buf))
		if c > n {
			c = n
		}
		if _, err := f.ReadAt(buf[:c], off); err != nil {
			return err
		}
		if _, err := dst.Write(buf[:c]); err != nil {
			return err
		}
		off += c
		n -= c
	}
	return nil
}

// writeFrameVec sends one frame as a vectored write: hdr already holds
// the frame header plus any op header; payload rides behind it without
// being copied into a joint buffer. Runs under w.mu (the caller holds
// it), so the scratch vector can live on the frameWriter — a net.Buffers
// literal per frame would put two slice headers on the heap every call.
func (w *frameWriter) writeFrameVec(hdr, payload []byte) error {
	if len(payload) == 0 {
		_, err := w.conn.Write(hdr)
		return err
	}
	if cap(w.vec) < 2 {
		w.vec = make(net.Buffers, 0, 2)
	}
	w.vec = append(w.vec[:0], hdr, payload)
	// WriteTo consumes the vector through its pointer receiver — it
	// advances w.vec past its backing array. Keep a copy of the original
	// header so the backing survives for the next frame, and drop the
	// payload references so the pool buffer isn't pinned.
	save := w.vec
	_, err := w.vec.WriteTo(w.conn)
	save[0], save[1] = nil, nil
	w.vec = save[:0]
	return err
}

// readFrameHeader reads a frame header, returning the body length
// and request ID. The caller reads the body (it may want to place it in
// a pooled or caller-supplied buffer). Peek/Discard parse the header in
// place inside the bufio buffer — a local [8]byte would escape through
// the io.ReadFull interface call and cost an allocation per frame.
func readFrameHeader(r *bufio.Reader, limit int) (n int, id uint32, err error) {
	hdr, err := r.Peek(8)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, err
	}
	n = int(binary.LittleEndian.Uint32(hdr[0:4]))
	id = binary.LittleEndian.Uint32(hdr[4:8])
	r.Discard(8)
	if n > limit {
		return 0, 0, fmt.Errorf("%w: %d bytes, limit %d", errFrameTooLarge, n, limit)
	}
	return n, id, nil
}

// sendFrame sends one frame (length, request ID, body) through a
// connection's batching writer.
func sendFrame(w *frameWriter, id uint32, body []byte) error {
	hp := hdrPool.Get().(*[]byte)
	hdr := append((*hp)[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], id)
	err := w.writeFrame(hdr, body)
	*hp = hdr[:0]
	hdrPool.Put(hp)
	return err
}

func statusErr(status byte) error {
	switch status {
	case StatusOK:
		return nil
	case StatusNoFreeChunk:
		return ErrNoFreeChunk
	case StatusQuotaExceeded:
		return ErrQuotaExceeded
	case StatusChunkLost:
		return ErrChunkLost
	default:
		return ErrBadRequest
	}
}
