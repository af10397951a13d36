package tor

import (
	"bytes"
	"testing"
	"testing/quick"
)

// sameCell reports whether two cells carry the same header and payload
// bytes (payload views alias different wire buffers).
func sameCell(a, b *Cell) bool {
	return a.CircID == b.CircID && a.Cmd == b.Cmd && a.Flags == b.Flags &&
		bytes.Equal(a.Payload, b.Payload)
}

func TestCellRoundTrip(t *testing.T) {
	c := &Cell{CircID: 0xdeadbeef, Cmd: CmdData, Flags: flagMore, Payload: []byte("hello onion")}
	var wire [CellSize]byte
	if err := c.encodeInto(&wire); err != nil {
		t.Fatal(err)
	}
	var got Cell
	if err := decodeCellView(&got, &wire); err != nil {
		t.Fatal(err)
	}
	if !sameCell(&got, c) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, c)
	}
}

// TestCellFixedSize: a short cell encoded over a buffer that held a
// full one leaves no stale bytes in the padding, so the wire form of a
// cell depends on the cell alone.
func TestCellFixedSize(t *testing.T) {
	small := &Cell{CircID: 1, Cmd: CmdData, Payload: []byte("x")}
	big := &Cell{CircID: 1, Cmd: CmdData, Payload: bytes.Repeat([]byte("y"), MaxCellPayload)}
	var wire [CellSize]byte
	if err := big.encodeInto(&wire); err != nil {
		t.Fatal(err)
	}
	if err := small.encodeInto(&wire); err != nil {
		t.Fatal(err)
	}
	for i, b := range wire[cellHeaderSize+len(small.Payload):] {
		if b != 0 {
			t.Fatalf("padding byte %d = %#x, want 0", cellHeaderSize+len(small.Payload)+i, b)
		}
	}
}

func TestCellRejectsOversizedPayload(t *testing.T) {
	c := &Cell{Payload: make([]byte, MaxCellPayload+1)}
	var wire [CellSize]byte
	if err := c.encodeInto(&wire); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestDecodeCellRejectsBadLength(t *testing.T) {
	var wire [CellSize]byte
	wire[10] = 0xff // declared length 0xff00 > MaxCellPayload
	wire[11] = 0x00
	var c Cell
	if err := decodeCellView(&c, &wire); err == nil {
		t.Fatal("bad declared length accepted")
	}
}

func TestCellPropertyRoundTrip(t *testing.T) {
	err := quick.Check(func(circ uint64, cmd byte, flags byte, payload []byte) bool {
		if len(payload) > MaxCellPayload {
			payload = payload[:MaxCellPayload]
		}
		c := &Cell{CircID: circ, Cmd: Command(cmd), Flags: flags, Payload: payload}
		var wire [CellSize]byte
		if err := c.encodeInto(&wire); err != nil {
			return false
		}
		var got Cell
		if err := decodeCellView(&got, &wire); err != nil {
			return false
		}
		return sameCell(&got, c)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommandStrings(t *testing.T) {
	for cmd := CmdEstablishIntro; cmd <= CmdEnd; cmd++ {
		if s := cmd.String(); s == "" || s[0] == 'C' && len(s) > 8 && s[:8] == "Command(" {
			t.Errorf("command %d has no name", cmd)
		}
	}
	if Command(99).String() != "Command(99)" {
		t.Error("unknown command should render numerically")
	}
}
