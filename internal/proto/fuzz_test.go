package proto

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// readWriter adapts a reader to the codec's io.ReadWriter (writes are
// never used by the fuzz target).
type readWriter struct{ *bytes.Reader }

func (readWriter) Write(p []byte) (int, error) { return len(p), nil }

// FuzzCodecRead feeds arbitrary bytes to the framed decoder: it must
// return an error or a well-formed message, never panic, and never
// allocate unbounded memory for a hostile length prefix.
func FuzzCodecRead(f *testing.F) {
	// Seed with valid frames (including the submit-stream and batch
	// messages of the ingest path) and a few corruptions.
	var buf bytes.Buffer
	c := NewCodec(&buf)
	_ = c.Write(&Message{Type: TypeRegister, Register: &Register{MachineID: "m", GPUs: 8}})
	valid := buf.Bytes()
	f.Add(valid)
	var ingestBuf bytes.Buffer
	ic := NewCodec(&ingestBuf)
	_ = ic.Write(&Message{Type: TypeSubmit, Submit: &Submit{Seq: 7,
		Job: JobSpec{Model: "gpt2", GPUs: 1, Iterations: 10, Tenant: "t"}}})
	_ = ic.Write(&Message{Type: TypeSubmitAck, SubmitAck: &SubmitAck{
		Seq: 7, Err: "queue full", Code: CodeQueueFull, Retryable: true}})
	_ = ic.Write(&Message{Type: TypeSubmitBatch, SubmitBatch: &SubmitBatch{
		Jobs: []JobSpec{{Model: "bert", GPUs: 2, Iterations: 5}, {Model: "a2c", GPUs: 1, Iterations: 1}}}})
	_ = ic.Write(&Message{Type: TypeSubmitBatchAck, SubmitBatchAck: &SubmitBatchAck{
		Results: []SubmitResult{{ID: 1}, {Code: CodeThrottled, Retryable: true}}}})
	f.Add(ingestBuf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	truncated := append([]byte{}, valid[:len(valid)-3]...)
	f.Add(truncated)
	corrupted := append([]byte{}, valid...)
	corrupted[6] ^= 0xff
	f.Add(corrupted)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCodec(readWriter{bytes.NewReader(data)})
		for i := 0; i < 4; i++ { // a few frames per input
			m, err := c.Read()
			if err != nil {
				return
			}
			if m.Type == "" {
				t.Fatal("decoded message without type")
			}
		}
	})
}

// FuzzSubmitBatchRoundTrip builds a SubmitBatch from arbitrary field
// values, frames it, and decodes it back: the ingest-path messages must
// survive the codec bit-exactly for any spec contents.
func FuzzSubmitBatchRoundTrip(f *testing.F) {
	f.Add("gpt2", "tenant-a", int64(100), 2, uint8(3))
	f.Add("", "", int64(-1), -4, uint8(0))
	f.Add("model with spaces\x00and bytes", "\xff\xfe", int64(1<<62), 1<<30, uint8(9))
	f.Fuzz(func(t *testing.T, model, tenant string, iters int64, gpus int, n uint8) {
		jobs := make([]JobSpec, int(n%8))
		for i := range jobs {
			jobs[i] = JobSpec{
				ID:         int64(i),
				Model:      model,
				Tenant:     tenant,
				Iterations: iters,
				GPUs:       gpus,
				Stages:     [4]time.Duration{1, 2, 3, time.Duration(iters)},
			}
		}
		msgs := []*Message{
			{Type: TypeSubmitBatch, SubmitBatch: &SubmitBatch{Jobs: jobs}},
			{Type: TypeSubmit, Submit: &Submit{Job: JobSpec{Model: model, Tenant: tenant}, Seq: uint64(n)}},
			{Type: TypeSubmitAck, SubmitAck: &SubmitAck{ID: iters, Seq: uint64(n), Code: CodeQueueFull, Retryable: true}},
		}
		var buf bytes.Buffer
		c := NewCodec(&buf)
		for _, m := range msgs {
			if err := c.Write(m); err != nil {
				// Only invalid UTF-8 can fail JSON marshalling; decode
				// must still never see a torn frame.
				return
			}
		}
		got, err := c.Read()
		if err != nil {
			t.Fatalf("read back batch: %v", err)
		}
		if got.Type != TypeSubmitBatch || got.SubmitBatch == nil {
			t.Fatalf("round trip type = %s", got.Type)
		}
		if len(got.SubmitBatch.Jobs) != len(jobs) {
			t.Fatalf("round trip kept %d jobs, want %d", len(got.SubmitBatch.Jobs), len(jobs))
		}
		for i, j := range got.SubmitBatch.Jobs {
			if j.Iterations != jobs[i].Iterations || j.GPUs != jobs[i].GPUs || j.Stages != jobs[i].Stages {
				t.Fatalf("job %d mutated: %+v != %+v", i, j, jobs[i])
			}
		}
	})
}

// FuzzHTTPSubmitJSON feeds arbitrary bytes to the HTTP ingest bodies:
// decoding must never panic, and anything that decodes must re-encode.
func FuzzHTTPSubmitJSON(f *testing.F) {
	f.Add([]byte(`{"job":{"model":"gpt2","gpus":1,"iterations":10}}`))
	f.Add([]byte(`{"jobs":[{"model":"bert"},{"model":"a2c","tenant":"t"}]}`))
	f.Add([]byte(`{"jobs":null}`))
	f.Add([]byte(`{"job":{"stages":[1,2,3]}}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var single Submit
		if err := json.Unmarshal(data, &single); err == nil {
			if _, err := json.Marshal(single); err != nil {
				t.Fatalf("re-encode single: %v", err)
			}
		}
		var batch SubmitBatch
		if err := json.Unmarshal(data, &batch); err == nil {
			if _, err := json.Marshal(batch); err != nil {
				t.Fatalf("re-encode batch: %v", err)
			}
		}
		var resp SubmitBatchAck
		if err := json.Unmarshal(data, &resp); err == nil {
			if _, err := json.Marshal(resp); err != nil {
				t.Fatalf("re-encode response: %v", err)
			}
		}
	})
}
