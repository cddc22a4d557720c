//go:build darwin || dragonfly || freebsd || netbsd || openbsd

package serve

// The BSDs (and Darwin) all define SO_REUSEPORT as 0x200 in
// sys/socket.h; on these kernels the option balances UDP datagrams
// across the sharing sockets just as Linux does.
const soReusePort = 0x200
