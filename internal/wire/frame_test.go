package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

// frameBytes renders one frame carrying body as a reader would see it.
func frameBytes(t *testing.T, typ MsgType, body []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := WriteFrame(&b, typ, body); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestStalledFrameHeaderPinsOneStep: a peer that sends a header declaring
// MaxFrame and then nothing must cost the reader at most one frameStep of
// memory, not the declared 16 MiB.
func TestStalledFrameHeaderPinsOneStep(t *testing.T) {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	r := bytes.NewReader(hdr[:])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := ReadFrame(r)
	runtime.ReadMemStats(&after)
	if err != io.EOF {
		t.Fatalf("stalled frame err = %v, want io.EOF", err)
	}
	const slack = 4 << 10
	if d := after.TotalAlloc - before.TotalAlloc; d > frameStep+slack {
		t.Fatalf("header declaring %d bytes allocated %d bytes, want <= %d", MaxFrame, d, frameStep+slack)
	}
}

// TestLargeFrameRoundTrip reads frames just above one frameStep and at
// MaxFrame, through a reader that returns half of what is asked, so the
// buffer grows across many short reads.
func TestLargeFrameRoundTrip(t *testing.T) {
	for _, payload := range []int{frameStep + 1, MaxFrame} {
		body := make([]byte, payload-1)
		for i := range body {
			body[i] = byte(i * 7)
		}
		raw := frameBytes(t, MsgExec, body)
		typ, got, n, err := ReadFrame(iotest.HalfReader(bytes.NewReader(raw)))
		if err != nil {
			t.Fatalf("payload %d: %v", payload, err)
		}
		if typ != MsgExec || !bytes.Equal(got, body) || n != len(raw) {
			t.Fatalf("payload %d: type %v, %d body bytes, %d consumed; want %v, %d, %d",
				payload, typ, len(got), n, MsgExec, len(body), len(raw))
		}
		// A frame cut short past its first step is a truncated frame, not
		// a clean end of stream.
		if _, _, _, err := ReadFrame(bytes.NewReader(raw[:len(raw)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("payload %d truncated: err = %v, want io.ErrUnexpectedEOF", payload, err)
		}
	}
}

// TestSmallFramePayloadOneAllocation: a frame of at most frameStep bytes,
// which is every frame the workloads send, takes exactly one allocation,
// its payload. The 4-byte header is read byte by byte out of the reader's
// own buffer, so no header array escapes.
func TestSmallFramePayloadOneAllocation(t *testing.T) {
	raw := frameBytes(t, MsgRows, make([]byte, frameStep-1))
	r := bytes.NewReader(raw)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(raw)
		if _, _, _, err := ReadFrame(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("ReadFrame of a %d-byte payload: %.0f allocations, want 1 (the payload)", frameStep, allocs)
	}
}

// TestFrameHeaderEnds checks both header paths, a byte reader's and a
// plain reader's: no byte is a clean end of stream, part of a header is a
// truncated frame.
func TestFrameHeaderEnds(t *testing.T) {
	raw := frameBytes(t, MsgOK, nil)
	for _, wrap := range []struct {
		name string
		r    func([]byte) io.Reader
	}{
		{"byte reader", func(b []byte) io.Reader { return bytes.NewReader(b) }},
		{"plain reader", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
	} {
		for cut, want := range map[int]error{0: io.EOF, 1: io.ErrUnexpectedEOF, frameHeader - 1: io.ErrUnexpectedEOF} {
			if _, _, _, err := ReadFrame(wrap.r(raw[:cut])); err != want {
				t.Errorf("%s, %d header bytes: err = %v, want %v", wrap.name, cut, err, want)
			}
		}
		typ, body, n, err := ReadFrame(wrap.r(raw))
		if err != nil || typ != MsgOK || len(body) != 0 || n != len(raw) {
			t.Errorf("%s: ReadFrame = %v, %q, %d, %v; want MsgOK, empty, %d, nil", wrap.name, typ, body, n, err, len(raw))
		}
	}
}
