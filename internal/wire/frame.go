package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The frame layer is the physical unit of the aggifyd protocol: every
// message travels as one length-prefixed frame. The same framing is used on
// real sockets (internal/server, the socket transport in internal/client)
// and to price messages for the virtual meter, so the simulated byte counts
// are exactly the bytes a loopback capture would show.
//
// Frame layout:
//
//	uint32 big-endian payload length (message type byte + body)
//	1 byte message type
//	body (length-1 bytes)

// MaxFrame is the largest accepted frame payload in bytes. Frames that
// declare a larger payload are rejected before any allocation, and a frame
// within the limit is buffered as its bytes arrive (see frameStep), which
// bounds the memory a malformed or hostile peer can force the server to
// commit.
const MaxFrame = 16 << 20

// frameHeader is the fixed length-prefix size.
const frameHeader = 4

// FrameSize returns the on-the-wire size of a frame carrying a body of the
// given length (length prefix + type byte + body).
func FrameSize(bodyLen int) int { return frameHeader + 1 + bodyLen }

// MsgType identifies a protocol message. Client requests use the low range;
// server responses have the high bit set.
type MsgType byte

const (
	// MsgExec carries a script (DDL, DML, procedure/aggregate definitions)
	// to run as one batch. Body: UTF-8 script text. Reply: MsgResults.
	MsgExec MsgType = 0x01
	// MsgPrepare carries a single SELECT (with '?' placeholders) to prepare.
	// Body: UTF-8 statement text. Reply: MsgStmt.
	MsgPrepare MsgType = 0x02
	// MsgQuery executes a prepared statement. Body: uvarint statement id +
	// parameter row in the storage codec + optional uvarint max rows of the
	// first batch (missing reads as 0). Reply: MsgCursor.
	MsgQuery MsgType = 0x03
	// MsgFetch pulls the next batch from a server-side cursor. Body: uvarint
	// cursor id + uvarint max rows. Reply: MsgRows.
	MsgFetch MsgType = 0x04
	// MsgCloseCursor releases a server-side cursor early. Body: uvarint
	// cursor id. Reply: MsgOK.
	MsgCloseCursor MsgType = 0x05
	// MsgQuit announces an orderly client disconnect. Empty body. Reply:
	// MsgOK, after which the server closes the connection.
	MsgQuit MsgType = 0x06
	// MsgStats requests the server's query-metrics snapshot. Empty body.
	// Reply: MsgServerStats.
	MsgStats MsgType = 0x07

	// MsgOK is the empty success acknowledgement.
	MsgOK MsgType = 0x81
	// MsgError reports a failed request. Body: UTF-8 error text.
	MsgError MsgType = 0x82
	// MsgResults answers MsgExec. Body: an encoded ExecResult (PRINT output
	// plus any result sets the script produced).
	MsgResults MsgType = 0x83
	// MsgStmt answers MsgPrepare. Body: uvarint statement id.
	MsgStmt MsgType = 0x84
	// MsgCursor answers MsgQuery. Body: uvarint cursor id + column names +
	// the first batch laid out as a MsgRows body.
	MsgCursor MsgType = 0x85
	// MsgRows answers MsgFetch. Body: done flag + encoded row batch.
	MsgRows MsgType = 0x86
	// MsgServerStats answers MsgStats. Body: an encoded ServerStats.
	MsgServerStats MsgType = 0x87
)

// WriteFrame writes one frame and returns the number of bytes written.
func WriteFrame(w io.Writer, typ MsgType, body []byte) (int, error) {
	if len(body)+1 > MaxFrame {
		return 0, fmt.Errorf("wire: frame payload %d exceeds limit %d", len(body)+1, MaxFrame)
	}
	var hdr [frameHeader + 1]byte
	binary.BigEndian.PutUint32(hdr[:frameHeader], uint32(len(body)+1))
	hdr[frameHeader] = byte(typ)
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(body); err != nil {
		return 0, err
	}
	return FrameSize(len(body)), nil
}

// ReadFrame reads one frame, returning its type, body, and the total bytes
// consumed. Frames whose declared payload exceeds MaxFrame are rejected
// without reading the payload. The payload is the one allocation.
func ReadFrame(r io.Reader) (MsgType, []byte, int, error) {
	n, err := readHeader(r)
	if err != nil {
		return 0, nil, 0, err
	}
	if n == 0 {
		return 0, nil, frameHeader, fmt.Errorf("wire: empty frame")
	}
	if n > MaxFrame {
		return 0, nil, frameHeader, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, MaxFrame)
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return 0, nil, frameHeader, err
	}
	return MsgType(payload[0]), payload[1:], FrameSize(int(n) - 1), nil
}

// readHeader reads the 4-byte length prefix. A reader that reads bytes
// (bufio.Reader, bytes.Reader and Buffer: every caller's) yields them one
// at a time out of its own buffer, so no header array escapes to the heap
// on the way through io.Reader; any other reader gets one. Like
// io.ReadFull, it returns io.EOF when no byte arrives and
// io.ErrUnexpectedEOF when the stream ends part-way.
func readHeader(r io.Reader) (uint32, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint32(hdr[:]), nil
	}
	var n uint32
	for i := 0; i < frameHeader; i++ {
		c, err := br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		n = n<<8 | uint32(c)
	}
	return n, nil
}

// frameStep is the most ReadFrame allocates ahead of the bytes it has
// received. A payload of at most frameStep bytes takes one allocation; a
// larger one starts at frameStep and doubles as its bytes arrive, so a peer
// that declares MaxFrame and stalls pins one step, not MaxFrame.
const frameStep = 64 << 10

// readPayload reads exactly n payload bytes. It returns io.EOF when no byte
// arrives and io.ErrUnexpectedEOF when the stream ends part-way.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, frameStep))
	off := 0
	for {
		m, err := io.ReadFull(r, buf[off:])
		off += m
		if err == io.EOF && off > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if off == n {
			return buf, nil
		}
		grown := make([]byte, min(n, 2*len(buf)))
		copy(grown, buf)
		buf = grown
	}
}
