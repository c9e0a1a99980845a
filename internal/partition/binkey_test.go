package partition

import (
	"bytes"
	"testing"
)

// TestBinaryKeyMatchesKey pins the binary key to the reference Key: two
// sequences agree on AppendBinaryKey iff they agree on Key.
func TestBinaryKeyMatchesKey(t *testing.T) {
	seqs := []Seq{
		NewSeq(),
		NewSeq(Split(0)),
		NewSeq(Split(1)),
		NewSeq(Split(0), Split(1)),
		NewSeq(Split(1), Split(0)),
		NewSeq(NewPrime(1, 0, 1, 2)),
		NewSeq(NewPrime(1, 1, 0, 2)),
		NewSeq(NewPrime(2, 0, 1, 2)),
		NewSeq(Split(0), NewPrime(1, 0, 1, 2)),
		NewSeq(NewPrime(1, 0, 1, 2), Split(0)),
		NewSeq(Split(2), Split(2), Split(2)),
	}
	var ka, kb []byte
	for i, a := range seqs {
		for j, b := range seqs {
			ka, kb = a.AppendBinaryKey(ka[:0]), b.AppendBinaryKey(kb[:0])
			sameRef := a.Key() == b.Key()
			sameBin := bytes.Equal(ka, kb)
			if sameRef != sameBin {
				t.Errorf("seq %d vs %d: Key equal=%v but binary key equal=%v", i, j, sameRef, sameBin)
			}
		}
	}
}

// TestBinaryKeyDistinguishesTokenBoundaries checks the encoding is not fooled
// by token fields that concatenate to the same digits (the classic injectivity
// trap for string keys without separators).
func TestBinaryKeyDistinguishesTokenBoundaries(t *testing.T) {
	a := NewSeq(Split(12))
	b := NewSeq(Split(1), Split(2))
	if bytes.Equal(a.AppendBinaryKey(nil), b.AppendBinaryKey(nil)) {
		t.Fatalf("Split(12) and Split(1),Split(2) share a binary key")
	}
}
