//go:build !linux

package wire

import (
	"errors"
	"net"
	"os"
)

// zeroCopyAvailable reports whether this build can serve spill-file
// payloads via sendfile and pass descriptors over SCM_RIGHTS. Portable
// builds always use the buffered fallback and never answer OpSpillFD.
const zeroCopyAvailable = false

// errZCUnsupported mirrors the linux build's sentinel so shared code
// can reference it unconditionally.
var errZCUnsupported = errors.New("wire: zero-copy unsupported on this build")

// zeroCopier is never constructed on portable builds; every spill-file
// response takes the buffered fallback path in writeFrameFile.
type zeroCopier struct{}

func newZeroCopier(conn net.Conn) *zeroCopier { return nil }

func (z *zeroCopier) sendFile(f *os.File, off, n int64) (int64, error) {
	return 0, errZCUnsupported
}

// sendFDOverUnix and recvFDOverUnix need SCM_RIGHTS plumbing that this
// build does not compile in; servers answer OpSpillFD with
// StatusBadRequest and clients never attempt the handshake.
func sendFDOverUnix(uc *net.UnixConn, id uint32, fd int) error { return errZCUnsupported }

func recvFDOverUnix(uc *net.UnixConn) (*os.File, error) { return nil, errZCUnsupported }

// poolGeom mirrors the linux build's handshake payload so shared code
// compiles; no OpPoolFD exchange ever succeeds on this build.
type poolGeom struct {
	segChunks int
	chunks    int
	chunkSize int
}

// sendPoolFDsOverUnix and recvPoolFDsOverUnix mirror the spill-fd
// stubs: servers answer OpPoolFD with StatusBadRequest and clients
// never attempt the handshake.
func sendPoolFDsOverUnix(uc *net.UnixConn, id uint32, meta *os.File, segs []*os.File, g poolGeom) error {
	return errZCUnsupported
}

func recvPoolFDsOverUnix(uc *net.UnixConn) (*os.File, []*os.File, poolGeom, error) {
	return nil, nil, poolGeom{}, errZCUnsupported
}

// mapPoolMeta and unmapPoolMeta are never reached on this build: no
// descriptors arrive without recvPoolFDsOverUnix succeeding.
func mapPoolMeta(meta *os.File, chunks int) ([]byte, []uint64, error) {
	return nil, nil, errZCUnsupported
}

func unmapPoolMeta(raw []byte) {}
