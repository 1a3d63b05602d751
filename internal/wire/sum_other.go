//go:build !amd64

package wire

// haveAVX2 is false off amd64, so sum always takes the word loop and the
// compiler drops the vector branch.
const haveAVX2 = false

// sumAVX2 exists only so sum compiles everywhere; off amd64 it is never
// called.
func sumAVX2(b []byte) uint64 {
	panic("wire: sumAVX2 called without AVX2")
}
