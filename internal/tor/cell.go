package tor

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// CellSize is the fixed on-wire size of every cell, as in Tor. Fixed
// sizing is load-bearing for the paper: relayed traffic must not leak
// message boundaries or nature.
const CellSize = 512

// cellHeaderSize is circID(8) + cmd(1) + flags(1) + length(2).
const cellHeaderSize = 12

// MaxCellPayload is the usable payload per cell; longer messages are
// fragmented by Conn.
const MaxCellPayload = CellSize - cellHeaderSize

// Command tags the cell type.
type Command byte

// Cell commands. The numbering is internal to the simulator.
const (
	CmdEstablishIntro Command = iota + 1
	CmdEstablishRendezvous
	CmdIntroduce1
	CmdIntroduce2
	CmdRendezvous1
	CmdRendezvous2
	CmdData
	CmdEnd
)

// String names the command for logs.
func (c Command) String() string {
	switch c {
	case CmdEstablishIntro:
		return "ESTABLISH_INTRO"
	case CmdEstablishRendezvous:
		return "ESTABLISH_RENDEZVOUS"
	case CmdIntroduce1:
		return "INTRODUCE1"
	case CmdIntroduce2:
		return "INTRODUCE2"
	case CmdRendezvous1:
		return "RENDEZVOUS1"
	case CmdRendezvous2:
		return "RENDEZVOUS2"
	case CmdData:
		return "DATA"
	case CmdEnd:
		return "END"
	default:
		return fmt.Sprintf("Command(%d)", byte(c))
	}
}

// cell flag bits.
const (
	// flagMore marks a fragment that is not the last of its message.
	flagMore byte = 1 << 0
)

// Cell is one fixed-size unit on the wire.
type Cell struct {
	CircID  uint64
	Cmd     Command
	Flags   byte
	Payload []byte // <= MaxCellPayload
}

// ErrCellTooLarge reports an attempt to build a cell with an oversized
// payload.
var ErrCellTooLarge = errors.New("tor: cell payload exceeds MaxCellPayload")

// encodeInto renders the cell into a caller-provided fixed 512-byte
// wire buffer, zeroing the padding tail so every cell is the same size
// on the wire — the allocation-free form the data plane uses with stack
// scratch buffers.
func (c *Cell) encodeInto(wire *[CellSize]byte) error {
	if len(c.Payload) > MaxCellPayload {
		return fmt.Errorf("%w: %d bytes", ErrCellTooLarge, len(c.Payload))
	}
	binary.BigEndian.PutUint64(wire[0:8], c.CircID)
	wire[8] = byte(c.Cmd)
	wire[9] = c.Flags
	binary.BigEndian.PutUint16(wire[10:12], uint16(len(c.Payload)))
	n := copy(wire[cellHeaderSize:], c.Payload)
	tail := wire[cellHeaderSize+n:]
	for i := range tail {
		tail[i] = 0
	}
	return nil
}

// decodeCellView parses wire into c with c.Payload aliasing wire's
// storage. The view is only valid while wire is unmodified; the data
// plane processes cells synchronously and copies any payload bytes it
// retains.
func decodeCellView(c *Cell, wire *[CellSize]byte) error {
	length := binary.BigEndian.Uint16(wire[10:12])
	if int(length) > MaxCellPayload {
		return fmt.Errorf("tor: cell declares %d payload bytes, max %d", length, MaxCellPayload)
	}
	c.CircID = binary.BigEndian.Uint64(wire[0:8])
	c.Cmd = Command(wire[8])
	c.Flags = wire[9]
	c.Payload = wire[cellHeaderSize : cellHeaderSize+int(length)]
	return nil
}
