package textclass

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// TokensOf exposes the negation-filtered token stream to the external tests.
func TokensOf(v *Vectorizer, text string) []string { return v.tokensOf(text) }

// Fingerprint hashes a trained boosted ensemble with FNV-64a: the bias, then
// every tree in order walked in pre-order, each split as its feature and each
// leaf as the bits of its response. Equal fingerprints mean bit-identical
// trees.
func Fingerprint(bt *BoostedTrees) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	put := func(tag byte, v uint64) {
		buf[0] = tag
		binary.LittleEndian.PutUint64(buf[1:], v)
		h.Write(buf[:])
	}
	put('B', math.Float64bits(bt.bias))
	nodes := bt.trees.nodes
	var walk func(i int32)
	walk = func(i int32) {
		n := nodes[i]
		if n.feature < 0 {
			put('L', math.Float64bits(n.value))
			return
		}
		put('S', uint64(n.feature))
		walk(n.left)
		walk(n.right)
	}
	for _, root := range bt.trees.roots {
		walk(root)
	}
	return h.Sum64()
}
