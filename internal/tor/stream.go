package tor

import "crypto/subtle"

// Per-hop relay crypto is modelled as one AES-128-CTR layer per hop, all
// cut from a single keystream the network owns. Whoever originates a
// cell (the origin proxy going forward, the terminal relay going
// backward) fills a pad frame with one bodySize slot per hop in one
// pipelined XORKeyStream call. Each relay XORs its own slot into the
// cell body; the origin applies or strips every slot. So each hop sees
// a different ciphertext and only the endpoints see the plaintext, with
// no per-circuit cipher state: building a circuit and sending a cell
// allocate nothing, and each cell-hop costs one AES pass. No result
// reads a ciphertext, so which keystream bytes a cell gets changes no
// output.
//
// Frames are recycled per network like wire buffers. Cells run
// depth-first on one goroutine and a nested cell starts only after the
// cell that caused it has used every slot, so a frame is returned once
// its call tree unwinds.

// bodySize is the onion-encrypted span of a wire cell: everything after
// the cleartext circuit id.
const bodySize = CellSize - 8

// getPad takes a pad frame off the freelist (or allocates one) and fills
// it with hops slots of fresh keystream. Callers putPad it back once the
// cell's synchronous processing has fully unwound.
func (n *Network) getPad(hops int) []byte {
	var pad []byte
	if k := len(n.padFree); k > 0 && cap(n.padFree[k-1]) >= hops*bodySize {
		pad, n.padFree = n.padFree[k-1], n.padFree[:k-1]
	} else {
		pad = make([]byte, hops*bodySize)
	}
	pad = pad[:hops*bodySize]
	clear(pad)
	n.keystream.XORKeyStream(pad, pad)
	return pad
}

// putPad returns a pad frame to the freelist.
func (n *Network) putPad(pad []byte) { n.padFree = append(n.padFree, pad) }

// xorLayer applies or strips hop's onion layer on the body of a wire cell.
func xorLayer(wire *[CellSize]byte, pad []byte, hop int) {
	subtle.XORBytes(wire[8:], wire[8:], pad[hop*bodySize:(hop+1)*bodySize])
}

// xorLayers applies or strips every layer in pad: the origin's side.
func xorLayers(wire *[CellSize]byte, pad []byte) {
	for hop := 0; hop < len(pad)/bodySize; hop++ {
		xorLayer(wire, pad, hop)
	}
}
