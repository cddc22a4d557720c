package packet

import (
	"crypto/sha256"
	"fmt"
	"net/netip"
	"testing"
)

// TestBuildGolden pins the bytes Build emits for every frame shape it
// supports — IPv4 and IPv6, TCP and UDP, untagged and 802.1Q-tagged, an
// empty, an odd-length and a 1400-byte payload — each to its SHA-256.
// The odd payload exercises the checksum's virtual pad byte, and the
// 1400-byte one is a near-MTU frame.
func TestBuildGolden(t *testing.T) {
	want := map[string]string{
		"v4/tcp/vlan0/0":      "883b2e9baaf87d26082c3e810a53b33b31fe072a3db9ec316cedb66e88a4a6b5",
		"v4/tcp/vlan0/37":     "cac9bf3790ddda722b555702dbfbc60842b0adfab1de6cb5afd154f71de66af9",
		"v4/tcp/vlan0/1400":   "605e116502294bf1692a2e07ef71a36864c168d31ae4e94d6c8bfae6822a10a2",
		"v4/tcp/vlan100/0":    "3bab88d6847b741bddad24ae083372df2f4d36b0b6d7d4c3c9d6f7f1c3cc4088",
		"v4/tcp/vlan100/37":   "069460abb971c9115f6f7dc39895bf89b0e842c920e5145626479476cc293583",
		"v4/tcp/vlan100/1400": "f432b5ba8d80ac3a842432de0c0dc36cf316baaab6a057d26b842d6dded2a140",
		"v4/udp/vlan0/0":      "0ba17bfd26fa0b50160f90716b6c8333676cceeb72b68bb76661746358944a7f",
		"v4/udp/vlan0/37":     "3f2999c53d3079a48e64a2f02b21c80906f8d15e08639f6ec9e04a87f5fe45dc",
		"v4/udp/vlan0/1400":   "8590df8be05ea850d91e9a13387e7706128ce49fd69894a365b50f2c1dac76ff",
		"v4/udp/vlan100/0":    "801efcac7547c39e92ea1f0b15ea2aa1341fc024a42a0fb671596be13fa0d901",
		"v4/udp/vlan100/37":   "b573b966e6c9353982cfe3b58006b1287e5a7d414900639a31b3f6b23c138492",
		"v4/udp/vlan100/1400": "182fdbf9e07522c93aa141c018b371758e5c12cf6b8c65df4e283437e4f37a43",
		"v6/tcp/vlan0/0":      "db8c5cbeceb58c9e272d733fea7040e2f64159b9d11b891159784df4464b5e34",
		"v6/tcp/vlan0/37":     "207840870c95688914eebfea30fd48ba84dc161f4daf72ffd387f80b08e31044",
		"v6/tcp/vlan0/1400":   "ce5eb5cae37f1040a033fc2cf6e10ff4cbba6cf3ad9de5709f92ca6cd1c1dc9c",
		"v6/tcp/vlan100/0":    "7501be9ffcdbc74a760bb2fad3dfb4086495a41e2a734de4b42a895866efedce",
		"v6/tcp/vlan100/37":   "814fde1f5a1fde56164d6c7278c259866ddc9713cb91fc9ffaf1eccddc498b4a",
		"v6/tcp/vlan100/1400": "b2028e20971870b60699643d15f4bcbe45e629c5ae4a5e774d1492d5fff102b1",
		"v6/udp/vlan0/0":      "1a90a42c40ba8ab4867faa924b4df67e6a0ebcd84b7e2088b302b54895dd64e0",
		"v6/udp/vlan0/37":     "6d309b8c76c23e79fd560faf9bf0d543ade2c188da405705054d22e2507ed1a5",
		"v6/udp/vlan0/1400":   "2d0958642ad9e7240d151db6748653956a051dba41a188066bda4d30dd3374e5",
		"v6/udp/vlan100/0":    "5b0185eeade5e29f93f942c4a47664abddddb46683a924a7384c7f6e3f404387",
		"v6/udp/vlan100/37":   "d6a5c7efe9704861c684fe1b52594a0a62751f31a3dff2cf6485fe1b3cf02db1",
		"v6/udp/vlan100/1400": "c45dde1ced8d3e787a60413f3968a868bee0b5dd1bef5dd23ef72f8c745c622a",
	}
	b := NewBuilder()
	for _, fam := range []struct {
		name     string
		src, dst netip.Addr
	}{{"v4", srcV4, dstV4}, {"v6", srcV6, dstV6}} {
		for _, proto := range []struct {
			name string
			num  uint8
		}{{"tcp", IPProtocolTCP}, {"udp", IPProtocolUDP}} {
			for _, vlan := range []uint16{0, 100} {
				for _, payload := range []int{0, 37, 1400} {
					name := fmt.Sprintf("%s/%s/vlan%d/%d", fam.name, proto.name, vlan, payload)
					frame, err := b.Build(FrameSpec{
						SrcMAC: srcMAC, DstMAC: dstMAC, VLAN: vlan,
						SrcIP: fam.src, DstIP: fam.dst, Protocol: proto.num,
						SrcPort: 40000, DstPort: 443,
						PayloadLen: payload, Seq: 0x1234_5678,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := fmt.Sprintf("%x", sha256.Sum256(frame)); got != want[name] {
						t.Errorf("%s: %d-byte frame has sha256 %s, want %s", name, len(frame), got, want[name])
					}
				}
			}
		}
	}
}
