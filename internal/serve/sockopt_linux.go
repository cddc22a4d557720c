//go:build linux

package serve

// SO_REUSEPORT is not exported by the syscall package on Linux and the
// module is dependency-free (no golang.org/x/sys), so the value is
// spelled here: include/uapi/asm-generic/socket.h pins it at 15 on
// every Linux architecture the Go port targets.
const soReusePort = 0xf
