//go:build linux

package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// zeroCopyAvailable reports whether this build can serve spill-file
// payloads via sendfile and pass descriptors over SCM_RIGHTS.
const zeroCopyAvailable = true

// errZCUnsupported means the connection or kernel cannot take this
// transfer zero-copy; the caller falls back to the buffered path. It is
// only returned before any payload byte has moved.
var errZCUnsupported = errors.New("wire: zero-copy unsupported on this connection")

// zeroCopier drives sendfile(2) from a spill file into one connection's
// socket. It is created once per connection and bound to the raw
// descriptor, and its step closure is pre-bound so a steady-state
// zero-copy serve allocates nothing. Callers serialize use through the
// frameWriter lock.
type zeroCopier struct {
	rc   syscall.RawConn
	src  int   // spill-file fd for the in-flight transfer
	off  int64 // next file offset (sendfile advances it)
	left int64 // bytes still to send
	serr error // syscall error from the last step
	step func(fd uintptr) bool
}

// newZeroCopier returns a sendfile driver for conn, or nil when the
// connection is not a kernel socket we can sendfile into.
func newZeroCopier(conn net.Conn) *zeroCopier {
	type rawConner interface {
		SyscallConn() (syscall.RawConn, error)
	}
	var rc syscall.RawConn
	switch c := conn.(type) {
	case *net.TCPConn:
		rc, _ = c.SyscallConn()
	case *net.UnixConn:
		rc, _ = c.SyscallConn()
	default:
		// Wrapped conns (tests, middleware) may still expose the raw
		// socket.
		if sc, ok := conn.(rawConner); ok {
			rc, _ = sc.SyscallConn()
		}
	}
	if rc == nil {
		return nil
	}
	z := &zeroCopier{rc: rc}
	z.step = func(fd uintptr) bool {
		for z.left > 0 {
			n, err := syscall.Sendfile(int(fd), z.src, &z.off, int(z.left))
			if n > 0 {
				z.left -= int64(n)
				continue
			}
			switch err {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // wait for writability, then re-enter
			default:
				if err == nil {
					// 0 bytes, no error: offset past EOF — a corrupt
					// record; surface it rather than spinning.
					err = syscall.ENODATA
				}
				z.serr = err
				return true
			}
		}
		return true
	}
	return z
}

// sendFile transfers n bytes of f starting at off into the socket,
// returning the bytes actually moved zero-copy. A kernel that refuses
// the very first sendfile (EINVAL/ENOSYS/ENOTSOCK) yields
// errZCUnsupported with 0 bytes moved, so the caller can fall back to a
// buffered copy without corrupting the stream.
func (z *zeroCopier) sendFile(f *os.File, off, n int64) (int64, error) {
	z.src = int(f.Fd())
	z.off = off
	z.left = n
	z.serr = nil
	err := z.rc.Write(z.step)
	sent := n - z.left
	if err == nil {
		err = z.serr
	}
	if err != nil && sent == 0 {
		switch err {
		case syscall.EINVAL, syscall.ENOSYS, syscall.ENOTSOCK, syscall.ENOTSUP:
			return 0, errZCUnsupported
		}
	}
	return sent, err
}

// fdRespHeader builds the frame header plus status byte that opens a
// successful fd-exchange response to request id: the frame body is two
// bytes, and the second one rides the descriptor-carrying sendmsg.
func fdRespHeader(id uint32) [9]byte {
	hdr := [9]byte{2, 0, 0, 0, 0, 0, 0, 0, StatusOK}
	binary.LittleEndian.PutUint32(hdr[4:8], id)
	return hdr
}

// fdRequest is the whole frame of a descriptor-exchange request: a
// one-byte body (the op) under request ID 0.
func fdRequest(op byte) [9]byte { return [9]byte{1, 0, 0, 0, 0, 0, 0, 0, op} }

// readFDRespHeader reads the frame header plus status byte of an
// fd-exchange response. A refusal is a complete one-byte frame, so the
// stream stays usable; success announces the two-byte body whose second
// byte rides the descriptor-carrying sendmsg.
func readFDRespHeader(uc *net.UnixConn, what string) error {
	var hdr [9]byte
	if _, err := io.ReadFull(uc, hdr[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if hdr[8] != StatusOK || n != 2 {
		if err := statusErr(hdr[8]); err != nil && n == 1 {
			return err
		}
		return fmt.Errorf("wire: malformed %s response", what)
	}
	return nil
}

// sendFDOverUnix answers one OpSpillFD exchange on a unix connection:
// it writes the response frame [StatusOK, b] where the final byte b
// rides a sendmsg carrying fd as SCM_RIGHTS ancillary data. The caller
// guarantees the connection is lock-step with nothing buffered, so the
// descriptor lands exactly on the receiver's recvmsg boundary.
func sendFDOverUnix(uc *net.UnixConn, id uint32, fd int) error {
	hdr := fdRespHeader(id)
	if _, err := uc.Write(hdr[:]); err != nil {
		return err
	}
	rights := syscall.UnixRights(fd)
	_, _, err := uc.WriteMsgUnix([]byte{0}, rights, nil)
	return err
}

// recvFDOverUnix performs the client half of the OpSpillFD handshake on
// a dedicated raw unix connection (no buffered reader may sit between:
// a buffered read would consume the descriptor-carrying byte and the
// kernel would drop the ancillary data).
func recvFDOverUnix(uc *net.UnixConn) (*os.File, error) {
	req := fdRequest(OpSpillFD)
	if _, err := uc.Write(req[:]); err != nil {
		return nil, err
	}
	if err := readFDRespHeader(uc, "spill-fd"); err != nil {
		return nil, err
	}
	buf := make([]byte, 1)
	oob := make([]byte, syscall.CmsgSpace(4))
	_, oobn, _, _, err := uc.ReadMsgUnix(buf, oob)
	if err != nil {
		return nil, err
	}
	cmsgs, err := syscall.ParseSocketControlMessage(oob[:oobn])
	if err != nil {
		return nil, err
	}
	for _, cmsg := range cmsgs {
		fds, err := syscall.ParseUnixRights(&cmsg)
		if err != nil || len(fds) == 0 {
			continue
		}
		syscall.CloseOnExec(fds[0])
		// Extra descriptors (there should be none) must not leak.
		for _, extra := range fds[1:] {
			syscall.Close(extra)
		}
		return os.NewFile(uintptr(fds[0]), "sponge-spill-fd"), nil
	}
	return nil, errors.New("wire: spill-fd response carried no descriptor")
}

// scmMaxFD is the kernel's per-message SCM_RIGHTS descriptor cap; a
// pool with more segments than this (minus the generation table) cannot
// be passed in one handshake and the server refuses.
const scmMaxFD = 253

// poolGeom is the pool layout that rides the OpPoolFD handshake: the
// receiver needs it to turn handles into (segment, offset) pairs and to
// size its view of the generation table.
type poolGeom struct {
	segChunks int // chunk capacity of one segment slab
	chunks    int // total chunk count
	chunkSize int // real bytes per chunk
}

// sendPoolFDsOverUnix answers one OpPoolFD exchange on a unix
// connection: the response frame [StatusOK, nfds] goes out inline,
// then one sendmsg carries the 12-byte geometry payload with the
// generation-table descriptor plus every segment descriptor as
// SCM_RIGHTS ancillary data. The caller guarantees the connection is
// lock-step with nothing buffered, so the descriptors land exactly on
// the receiver's recvmsg boundary.
func sendPoolFDsOverUnix(uc *net.UnixConn, id uint32, meta *os.File, segs []*os.File, g poolGeom) error {
	nf := 1 + len(segs)
	if nf > scmMaxFD {
		return errZCUnsupported
	}
	hdr := fdRespHeader(id)
	if _, err := uc.Write(append(hdr[:], byte(nf))); err != nil {
		return err
	}
	fds := make([]int, 0, nf)
	fds = append(fds, int(meta.Fd()))
	for _, f := range segs {
		fds = append(fds, int(f.Fd()))
	}
	var geom [12]byte
	putU32(geom[0:4], g.segChunks)
	putU32(geom[4:8], g.chunks)
	putU32(geom[8:12], g.chunkSize)
	_, _, err := uc.WriteMsgUnix(geom[:], syscall.UnixRights(fds...), nil)
	return err
}

func putU32(b []byte, v int) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) int {
	return int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
}

// recvPoolFDsOverUnix performs the client half of the OpPoolFD
// handshake on a dedicated raw unix connection (like recvFDOverUnix, no
// buffered reader may sit between). On success the returned files are
// owned by the caller: the generation table first, then the segments in
// index order.
func recvPoolFDsOverUnix(uc *net.UnixConn) (meta *os.File, segs []*os.File, g poolGeom, err error) {
	req := fdRequest(OpPoolFD)
	if _, err := uc.Write(req[:]); err != nil {
		return nil, nil, g, err
	}
	if err := readFDRespHeader(uc, "pool-fd"); err != nil {
		return nil, nil, g, err
	}
	var nfb [1]byte
	if _, err := io.ReadFull(uc, nfb[:]); err != nil {
		return nil, nil, g, err
	}
	nf := int(nfb[0])
	if nf < 1 || nf > scmMaxFD {
		return nil, nil, g, errors.New("wire: malformed pool-fd response")
	}
	buf := make([]byte, 12)
	oob := make([]byte, syscall.CmsgSpace(4*nf))
	bn, oobn, _, _, err := uc.ReadMsgUnix(buf, oob)
	if err != nil {
		return nil, nil, g, err
	}
	var fds []int
	cmsgs, err := syscall.ParseSocketControlMessage(oob[:oobn])
	if err == nil {
		for _, cmsg := range cmsgs {
			got, perr := syscall.ParseUnixRights(&cmsg)
			if perr != nil {
				continue
			}
			fds = append(fds, got...)
		}
	}
	if bn != 12 || len(fds) != nf {
		for _, fd := range fds {
			syscall.Close(fd)
		}
		return nil, nil, g, errors.New("wire: pool-fd response carried wrong descriptors")
	}
	g = poolGeom{segChunks: getU32(buf[0:4]), chunks: getU32(buf[4:8]), chunkSize: getU32(buf[8:12])}
	for _, fd := range fds {
		syscall.CloseOnExec(fd)
	}
	meta = os.NewFile(uintptr(fds[0]), "sponge-pool-meta")
	segs = make([]*os.File, 0, nf-1)
	for i, fd := range fds[1:] {
		segs = append(segs, os.NewFile(uintptr(fd), fmt.Sprintf("sponge-pool-seg-%d", i)))
	}
	return meta, segs, g, nil
}

// mapPoolMeta maps a passed generation-table descriptor read-only and
// views it as the per-chunk []uint64 the pread fast path checks after
// each read. The raw mapping is returned for unmapPoolMeta.
func mapPoolMeta(meta *os.File, chunks int) (raw []byte, gens []uint64, err error) {
	if chunks == 0 {
		return nil, nil, nil
	}
	raw, err = syscall.Mmap(int(meta.Fd()), 0, chunks*8, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return raw, unsafe.Slice((*uint64)(unsafe.Pointer(&raw[0])), chunks), nil
}

// unmapPoolMeta releases a mapPoolMeta mapping.
func unmapPoolMeta(raw []byte) {
	if raw != nil {
		syscall.Munmap(raw)
	}
}
