package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"
)

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []*Message{
		{Type: TypeRegister, Register: &Register{MachineID: "m0", GPUs: 8}},
		{Type: TypeRegisterAck, RegisterAck: &RegisterAck{OK: true}},
		{Type: TypeLaunch, Launch: &Launch{
			GroupID: 7, GPUs: 2, TimeScale: 0.001, ReportEvery: time.Second,
			Jobs: []JobSpec{{ID: 1, Model: "gpt2", Stages: [4]time.Duration{1, 2, 3, 4}, Iterations: 100, GPUs: 2}},
		}},
		{Type: TypeKill, Kill: &Kill{GroupID: 7}},
		{Type: TypeProgress, Progress: &Progress{GroupID: 7, Jobs: []JobProgress{{ID: 1, DoneIterations: 42}}}},
		{Type: TypeJobDone, JobDone: &JobDone{GroupID: 7, JobID: 1}},
		{Type: TypeFault, Fault: &Fault{GroupID: 7, JobID: 1, Error: "cuda oom"}},
		{Type: TypeProfileReq, ProfileReq: &ProfileReq{Model: "bert", Iterations: 20, TimeScale: 0.001}},
		{Type: TypeProfiled, Profiled: &Profiled{Model: "bert", Stages: [4]time.Duration{1, 2, 3, 4}}},
		{Type: TypeSubmit, Submit: &Submit{Job: JobSpec{ID: 9, Model: "a2c", Tenant: "team-a"}, Seq: 3}},
		{Type: TypeSubmitAck, SubmitAck: &SubmitAck{ID: 9, Seq: 3}},
		{Type: TypeSubmitAck, SubmitAck: &SubmitAck{Err: "queue full", Code: CodeQueueFull, Retryable: true}},
		{Type: TypeSubmitBatch, SubmitBatch: &SubmitBatch{Jobs: []JobSpec{
			{Model: "gpt2", GPUs: 1, Iterations: 10},
			{Model: "bert", GPUs: 2, Iterations: 20, Tenant: "team-b"},
		}}},
		{Type: TypeSubmitBatchAck, SubmitBatchAck: &SubmitBatchAck{Results: []SubmitResult{
			{ID: 10},
			{Err: "over rate", Code: CodeThrottled, Retryable: true},
		}}},
		{Type: TypeStatus, Status: &Status{}},
		{Type: TypeStatusAck, StatusAck: &StatusAck{Pending: 1, Running: 2, Done: 3}},
		{Type: TypeTrace, Trace: &TraceReq{}},
		{Type: TypeTraceAck, TraceAck: &TraceAck{Trace: []byte(`{"traceEvents":[]}`)}},
	}
	var buf bytes.Buffer
	c := NewCodec(&buf)
	for _, m := range msgs {
		if err := c.Write(m); err != nil {
			t.Fatalf("write %s: %v", m.Type, err)
		}
	}
	for _, want := range msgs {
		got, err := c.Read()
		if err != nil {
			t.Fatalf("read %s: %v", want.Type, err)
		}
		if got.Type != want.Type {
			t.Fatalf("type = %s, want %s", got.Type, want.Type)
		}
	}
}

func TestLaunchFieldsSurvive(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	in := &Message{Type: TypeLaunch, Launch: &Launch{
		GroupID: 3, GPUs: 4, TimeScale: 0.5, ReportEvery: 2 * time.Second,
		Jobs: []JobSpec{
			{ID: 10, Model: "vgg16", Stages: [4]time.Duration{22, 4, 24, 38}, Iterations: 1000, DoneIterations: 17, GPUs: 4},
			{ID: 11, Model: "gpt2", Stages: [4]time.Duration{1, 1, 85, 28}, Iterations: 2000, GPUs: 4},
		},
	}}
	if err := c.Write(in); err != nil {
		t.Fatal(err)
	}
	out, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	if out.Launch == nil {
		t.Fatal("launch payload missing")
	}
	if len(out.Launch.Jobs) != 2 || out.Launch.Jobs[0].DoneIterations != 17 {
		t.Errorf("launch payload corrupted: %+v", out.Launch)
	}
	if out.Launch.TimeScale != 0.5 {
		t.Errorf("time scale = %v, want 0.5", out.Launch.TimeScale)
	}
}

func TestTracePayloadOpaque(t *testing.T) {
	// The trace payload is raw JSON that must survive framing untouched:
	// murictl writes it to disk verbatim for Perfetto.
	raw := []byte(`{"traceEvents":[{"name":"round 1","ph":"i","ts":12.5}],"displayTimeUnit":"ms"}`)
	var buf bytes.Buffer
	c := NewCodec(&buf)
	if err := c.Write(&Message{Type: TypeTraceAck, TraceAck: &TraceAck{Trace: raw}}); err != nil {
		t.Fatal(err)
	}
	out, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceAck == nil || !bytes.Equal(out.TraceAck.Trace, raw) {
		t.Errorf("trace payload mutated in flight: %s", out.TraceAck.Trace)
	}
}

func TestReadEOFOnClose(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	if _, err := c.Read(); err != io.EOF {
		t.Errorf("Read on empty stream = %v, want io.EOF", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxMessageSize+1)
	buf.Write(hdr[:])
	c := NewCodec(&buf)
	if _, err := c.Read(); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("{\"type\":\"status\"}") // shorter than declared
	c := NewCodec(&buf)
	if _, err := c.Read(); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestGarbageBody(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	body := []byte("not json at all!")
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	c := NewCodec(&buf)
	if _, err := c.Read(); err == nil {
		t.Error("garbage body accepted")
	}
}

func TestMissingTypeRejected(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("{}")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	c := NewCodec(&buf)
	if _, err := c.Read(); err == nil {
		t.Error("typeless message accepted")
	}
}

func TestOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan *Message, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- nil
			return
		}
		defer conn.Close()
		m, err := NewCodec(conn).Read()
		if err != nil {
			done <- nil
			return
		}
		done <- m
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewCodec(conn)
	if err := c.Write(&Message{Type: TypeRegister, Register: &Register{MachineID: "m1", GPUs: 8}}); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got == nil || got.Type != TypeRegister || got.Register.MachineID != "m1" {
		t.Errorf("TCP round trip failed: %+v", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(machine string, gpus uint8, groupID int64, done int64) bool {
		var buf bytes.Buffer
		c := NewCodec(&buf)
		in := &Message{Type: TypeProgress, Progress: &Progress{
			GroupID: groupID,
			Jobs:    []JobProgress{{ID: 1, DoneIterations: done}},
			Extra:   map[string]any{"machine": machine, "gpus": float64(gpus)},
		}}
		if err := c.Write(in); err != nil {
			return false
		}
		out, err := c.Read()
		if err != nil || out.Progress == nil {
			return false
		}
		return out.Progress.GroupID == groupID && out.Progress.Jobs[0].DoneIterations == done
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestManySequentialFrames(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := c.Write(&Message{Type: TypeJobDone, JobDone: &JobDone{GroupID: int64(i), JobID: int64(i * 2)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		m, err := c.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.JobDone.GroupID != int64(i) {
			t.Fatalf("frame %d: group %d", i, m.JobDone.GroupID)
		}
	}
}

// stream joins a reader and a writer into the codec's io.ReadWriter.
type stream struct {
	io.Reader
	io.Writer
}

// countingWriter keeps what it is sent and counts the Write calls.
type countingWriter struct {
	bytes.Buffer
	calls int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	return w.Buffer.Write(p)
}

// TestWriteIsOneCallPerFrame: a frame reaches the stream in one Write
// (one syscall on a socket), and its bytes are the length prefix followed
// by exactly what json.Marshal makes of the message. A frame larger than
// the write buffer a codec retains goes out whole, and so does the next.
func TestWriteIsOneCallPerFrame(t *testing.T) {
	msgs := []*Message{
		{Type: TypeRegister, Register: &Register{MachineID: "m0", GPUs: 8}},
		{Type: TypeSubmit, Submit: &Submit{Job: JobSpec{Model: "a2c", Tenant: "<t&>"}, Seq: 1}},
		{Type: TypeTraceAck, TraceAck: &TraceAck{Trace: []byte(`["` + strings.Repeat("x", 2*maxRetainedFrame) + `"]`)}},
		{Type: TypeJobDone, JobDone: &JobDone{GroupID: 7, JobID: 1}},
	}
	var w countingWriter
	var wire []byte
	c := NewCodec(stream{nil, &w})
	for i, m := range msgs {
		if err := c.Write(m); err != nil {
			t.Fatal(err)
		}
		if w.calls != i+1 {
			t.Fatalf("%d frames took %d Write calls", i+1, w.calls)
		}
		body, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		wire = append(binary.BigEndian.AppendUint32(wire, uint32(len(body))), body...)
	}
	if !bytes.Equal(w.Bytes(), wire) {
		t.Fatal("frames differ from length prefix + json.Marshal")
	}
}

// TestReadAcrossChunkedStream: the buffered reader reassembles frames
// whatever sizes the stream hands them out in.
func TestReadAcrossChunkedStream(t *testing.T) {
	var wire bytes.Buffer
	w := NewCodec(&wire)
	for i := 0; i < 3; i++ {
		if err := w.Write(&Message{Type: TypeJobDone, JobDone: &JobDone{GroupID: int64(i), JobID: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	for name, chunked := range map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader, "half": iotest.HalfReader,
	} {
		c := NewCodec(stream{chunked(bytes.NewReader(wire.Bytes())), io.Discard})
		for i := 0; i < 3; i++ {
			m, err := c.Read()
			if err != nil || m.JobDone == nil || m.JobDone.GroupID != int64(i) {
				t.Fatalf("%s: frame %d = %+v, %v", name, i, m, err)
			}
		}
		if _, err := c.Read(); err != io.EOF {
			t.Errorf("%s: read past the last frame = %v, want io.EOF", name, err)
		}
	}
}
