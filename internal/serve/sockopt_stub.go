//go:build !(linux || darwin || dragonfly || freebsd || netbsd || openbsd)

package serve

import (
	"errors"
	"net"
	"syscall"
)

// Platforms without a known SO_REUSEPORT value (aix, solaris, windows,
// …): no SO_REUSEPORT, no SO_RCVBUF readback. The daemon runs one reader
// on one socket and reports an unknown (0) effective receive buffer.
func controlReusePort(network, address string, c syscall.RawConn) error {
	return errors.ErrUnsupported
}

func effectiveReadBuffer(conn *net.UDPConn) int { return 0 }
