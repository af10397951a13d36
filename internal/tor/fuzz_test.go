package tor

import "testing"

// FuzzDecodeCell feeds arbitrary wire bytes (zero-padded or cut to one
// cell) to decodeCellView. It must never panic, and a cell it accepts
// must survive a round trip through encodeInto and decodeCellView
// unchanged.
func FuzzDecodeCell(f *testing.F) {
	for _, c := range []Cell{
		{CircID: 1, Cmd: CmdData, Payload: []byte("hello")},
		{CircID: 1<<64 - 1, Cmd: CmdIntroduce1, Flags: flagMore, Payload: make([]byte, MaxCellPayload)},
		{CircID: 7, Cmd: CmdEnd},
	} {
		var wire [CellSize]byte
		if err := c.encodeInto(&wire); err != nil {
			f.Fatal(err)
		}
		f.Add(wire[:])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 7, 0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw [CellSize]byte
		copy(raw[:], data)
		var c Cell
		if err := decodeCellView(&c, &raw); err != nil {
			return
		}
		var wire [CellSize]byte
		if err := c.encodeInto(&wire); err != nil {
			t.Fatalf("decoded cell %+v does not encode: %v", c, err)
		}
		var again Cell
		if err := decodeCellView(&again, &wire); err != nil {
			t.Fatalf("re-encoded cell does not decode: %v", err)
		}
		if !sameCell(&again, &c) {
			t.Fatalf("round trip changed %+v into %+v", c, again)
		}
	})
}
