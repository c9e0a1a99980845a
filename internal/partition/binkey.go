// Binary sequence keys: an exact encoding for comparing sequences on the hot
// path (the optimizer's layer-stacking check compares the head and tail
// candidate spaces index by index). Unlike Seq.Key, the binary key avoids
// fmt formatting and is injective by construction: every token field is
// length- or tag-delimited.
package partition

import "encoding/binary"

// AppendBinaryKey appends an exact, injective binary encoding of the sequence
// to b and returns the extended slice. Two sequences produce the same bytes
// iff they are token-for-token identical.
func (s Seq) AppendBinaryKey(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s.Tokens)))
	for _, t := range s.Tokens {
		if t.Kind == Prime {
			b = append(b, 1)
			b = binary.AppendUvarint(b, uint64(t.K))
			b = binary.AppendVarint(b, int64(t.MDim))
			b = binary.AppendVarint(b, int64(t.NDim))
			b = binary.AppendVarint(b, int64(t.KDim))
		} else {
			b = append(b, 0)
			b = binary.AppendVarint(b, int64(t.Dim))
		}
	}
	return b
}
