package durable

import (
	"encoding/binary"
	"fmt"

	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/wire"
)

// WAL record tags. Every record body starts with one tag byte; the
// layouts below use the same varint conventions as internal/wire.
// Network frames are embedded verbatim as wire.AppendFrame output —
// the 4-byte big-endian length prefix makes them self-delimiting — so
// recovery re-sends byte-identical frames and the journal never needs
// a second codec for message payloads. Each tag has exactly one layout:
// replay refuses a record with bytes left over, and a partition id
// outside the configured range.
const (
	recEnq  = 1 // id uvarint | frame                      — command arrived
	recExec = 2 // see appendExecLocked; ends part uvarint — execution effects
	recVU   = 3 // v uvarint | part uvarint                — vu[part] = max(vu, v)
	recVR   = 4 // v uvarint | part uvarint                — vr[part] = max(vr, v)
	recGC   = 5 // v uvarint | part uvarint                — drop part's versions < v
	recSend = 6 // frame                                   — session frame sent
	recRecv = 7 // to varint | from varint | next uvarint  — recv watermark
	recAck  = 8 // from varint | to varint | cum uvarint   — peer cumulative ack

	recCoordTerm = 9 // t uvarint — coordinator term = max(term, t)

	// Replica children journal as ordinary Enq/Exec records. Tags 10,
	// 11 and 12 are retired and never reused.
)

// Checkpoint blob format version: the one generation Checkpoint writes
// (encodeCheckpointLocked is the layout) and the only one
// decodeCheckpoint accepts; 1–6 were earlier generations.
const ckptVersion = 7

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// cur is a sticky-error decode cursor over one record body or
// checkpoint blob.
type cur struct {
	b   []byte
	off int
	err error
}

func (c *cur) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *cur) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.fail("durable: truncated record (byte at %d)", c.off)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

// end fails the decode if any byte is left over and returns the
// cursor's error.
func (c *cur) end() error {
	if c.err == nil && c.off != len(c.b) {
		c.fail("durable: %d trailing byte(s) at %d", len(c.b)-c.off, c.off)
	}
	return c.err
}

func (c *cur) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail("durable: bad uvarint at %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *cur) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail("durable: bad varint at %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// count reads a collection length, bounds-checked against the bytes
// remaining so corrupt input cannot provoke huge allocations.
func (c *cur) count() int {
	v := c.uvarint()
	if c.err == nil && v > uint64(len(c.b)-c.off) {
		c.fail("durable: count %d exceeds %d remaining bytes", v, len(c.b)-c.off)
		return 0
	}
	return int(v)
}

func (c *cur) str() string {
	n := c.count()
	if c.err != nil {
		return ""
	}
	s := string(c.b[c.off : c.off+n])
	c.off += n
	return s
}

// frame decodes one embedded network frame, returning both the decoded
// message and the raw frame bytes (length prefix included) for mirror
// storage.
func (c *cur) frame() (transport.Message, []byte) {
	if c.err != nil {
		return transport.Message{}, nil
	}
	if c.off+4 > len(c.b) {
		c.fail("durable: truncated frame prefix at %d", c.off)
		return transport.Message{}, nil
	}
	n := int(binary.BigEndian.Uint32(c.b[c.off:]))
	if c.off+4+n > len(c.b) {
		c.fail("durable: frame length %d exceeds remaining bytes", n)
		return transport.Message{}, nil
	}
	raw := c.b[c.off : c.off+4+n]
	m, err := wire.DecodeFrame(raw[4:])
	if err != nil {
		c.fail("durable: embedded frame: %v", err)
		return transport.Message{}, nil
	}
	c.off += 4 + n
	out := make([]byte, len(raw))
	copy(out, raw)
	return m, out
}

func (c *cur) op() model.Op {
	if c.err != nil {
		return nil
	}
	op, n, err := wire.DecodeOp(c.b[c.off:])
	if err != nil {
		c.fail("durable: embedded op: %v", err)
		return nil
	}
	c.off += n
	return op
}

func (c *cur) record() *model.Record {
	if c.err != nil {
		return nil
	}
	rec, n, err := wire.DecodeRecord(c.b[c.off:])
	if err != nil {
		c.fail("durable: embedded record: %v", err)
		return nil
	}
	c.off += n
	return rec
}
