package dist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// goldenPages is how many leading pages TestGeneratorsGolden hashes per
// generator.
const goldenPages = 256

// generatorsGolden pins the SHA-256 of the first goldenPages pages
// (ValuesPerPage-style 509-value pages, little-endian words) of every
// registered generator at seed 1 over [0, 100 000 000] and 4 096 pages.
// The values were computed before the division-free xrand.Uint64n
// landed; any change to a generator or to the random stream under it
// shows up here, and with it every exact count, workload stream and
// // Output: block that depends on the data.
var generatorsGolden = map[string]string{
	"clustered": "5809fc881aed673e7bfb30617f8c87cafe1f898c4af8185cc2dfa437c411b893",
	"hotspot":   "1708db74491e02372e73a8f0e89619360954ed2a230e52281ac79927dd8bcd0b",
	"linear":    "37d1be3849b5b106f935b8a9b84bb3a75c703244af8dfe4a38324bda1735e124",
	"shifted":   "d749d44f16103b24710079cae44a33d8ca4d2cde8ed9e7a7ea548dc3c7b4bfa5",
	"sine":      "0c72d288f0a8c8e3761edaa202a888605513738ec23ba71adde4e201af64c2a5",
	"sparse":    "448ca878c4a565896c8b0413ab0c55e6285568e2d03d8b77bc8ea19f27b91ac8",
	"uniform":   "b1f0017ead955cd3b46ad58071f6ce065ee724424f54b04faee507e4540609f4",
	"zipf":      "f8d8183d608cc8424acb37b9b725cd649ca55bf2457814cf41c81f5f53b0e39f",
}

func TestGeneratorsGolden(t *testing.T) {
	buf := make([]uint64, 509)
	word := make([]byte, 8)
	for _, name := range Names() {
		g, err := ByName(name, 1, 0, testDomain, 4096)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		h := sha256.New()
		for p := 0; p < goldenPages; p++ {
			g.FillPage(p, buf)
			for _, v := range buf {
				binary.LittleEndian.PutUint64(word, v)
				h.Write(word)
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		want, ok := generatorsGolden[name]
		if !ok {
			t.Errorf("generator %q has no golden hash; got %s", name, got)
			continue
		}
		if got != want {
			t.Errorf("generator %q: sha256 of the first %d pages = %s, want %s", name, goldenPages, got, want)
		}
	}
}
