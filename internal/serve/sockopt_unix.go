//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd

package serve

import (
	"net"
	"syscall"
)

// controlReusePort is the net.ListenConfig.Control hook that marks a
// socket SO_REUSEPORT before bind, letting N sockets share one UDP
// address with the kernel hashing each exporter's flow to a fixed
// socket. This file builds where the dependency-free module knows the
// option's value (sockopt_linux.go, sockopt_bsd.go); every other
// platform builds sockopt_stub.go.
func controlReusePort(network, address string, c syscall.RawConn) error {
	var serr error
	if err := c.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
	}); err != nil {
		return err
	}
	return serr
}

// effectiveReadBuffer reads back SO_RCVBUF after SetReadBuffer's
// best-effort request: the size the kernel actually granted (Linux
// doubles the request for bookkeeping overhead and clamps it to
// net.core.rmem_max), 0 when unknowable. Reported instead of silently
// trusting the request, so an operator can see a clamped buffer before
// it shows up as drops under burst.
func effectiveReadBuffer(conn *net.UDPConn) int {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0
	}
	var v int
	if err := rc.Control(func(fd uintptr) {
		v, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		return 0
	}
	return v
}
