// HTTP/JSON front door: the second ingest transport next to the framed
// proto stream. Browsers, curl, and non-Go clients submit jobs here;
// the same admission queue, rate limits, and backpressure apply, so a
// rejection carries the identical typed code on both transports.
//
//	POST /api/v1/submit        {"job": {...JobSpec...}}      → SubmitResult
//	POST /api/v1/submit/batch  {"jobs": [{...}, ...]}        → {"results": [...]}
//	GET  /api/v1/status                                      → StatusAck
//
// Backpressure maps onto status codes: 429 for queue-full and
// per-tenant throttling (with Retry-After), 503 while draining, 400 for
// malformed specs. Batch submissions always answer 200 with per-job
// results, because one batch can mix outcomes.
package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"muri/internal/ingest"
	"muri/internal/proto"
)

// maxHTTPBody bounds a submission body, mirroring proto.MaxMessageSize
// on the framed transport.
const maxHTTPBody = proto.MaxMessageSize

// APIHandler serves the HTTP submission API on its own mux (murisched
// -http-addr). DebugHandler mounts the same routes next to /metrics.
func (s *Server) APIHandler() http.Handler {
	mux := http.NewServeMux()
	s.apiRoutes(mux)
	return mux
}

// apiRoutes registers the API endpoints onto mux.
func (s *Server) apiRoutes(mux *http.ServeMux) {
	mux.HandleFunc("/api/v1/submit", s.handleHTTPSubmit)
	mux.HandleFunc("/api/v1/submit/batch", s.handleHTTPSubmitBatch)
	mux.HandleFunc("/api/v1/status", s.handleHTTPStatus)
}

// statusFor maps a rejection onto its HTTP status code.
func statusFor(err error) int {
	if err == nil {
		return http.StatusOK
	}
	var ie *ingest.Error
	if errors.As(err, &ie) {
		switch {
		case ie == ingest.ErrDraining:
			return http.StatusServiceUnavailable
		case ie.Retryable:
			return http.StatusTooManyRequests
		}
	}
	return http.StatusBadRequest
}

// writeJSON renders v with the given status. Retryable rejections get a
// Retry-After hint sized to the scheduling interval (the queue drains
// once per round, so that is when capacity reappears).
func (s *Server) writeJSON(w http.ResponseWriter, status int, retryable bool, v any) {
	w.Header().Set("Content-Type", "application/json")
	if retryable {
		secs := int(s.cfg.Interval.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeBody unmarshals a bounded request body into v, answering false
// (with the error already written) on failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeJSON(w, http.StatusMethodNotAllowed, false,
			proto.SubmitResult{Err: "use POST", Code: proto.CodeInvalid})
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxHTTPBody))
	if err := dec.Decode(v); err != nil {
		s.writeJSON(w, http.StatusBadRequest, false,
			proto.SubmitResult{Err: "bad request body: " + err.Error(), Code: proto.CodeInvalid})
		return false
	}
	return true
}

// handleHTTPSubmit admits one job.
func (s *Server) handleHTTPSubmit(w http.ResponseWriter, r *http.Request) {
	var req proto.Submit
	if !s.decodeBody(w, r, &req) {
		return
	}
	id, err := s.submit(req.Job)
	res := submitResult(id, err)
	s.writeJSON(w, statusFor(err), res.Retryable, res)
}

// handleHTTPSubmitBatch admits many jobs in one request: one admission
// kick for the whole body, per-job results in order.
func (s *Server) handleHTTPSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req proto.SubmitBatch
	if !s.decodeBody(w, r, &req) {
		return
	}
	s.writeJSON(w, http.StatusOK, false, s.submitBatch(req.Jobs))
}

// handleHTTPStatus serves the same snapshot as the status RPC.
func (s *Server) handleHTTPStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeJSON(w, http.StatusMethodNotAllowed, false,
			proto.SubmitResult{Err: "use GET", Code: proto.CodeInvalid})
		return
	}
	st := s.status()
	s.writeJSON(w, http.StatusOK, false, st)
}
