package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// maxBodyPresize caps the buffer a /solve body read allocates up front.
const maxBodyPresize = 64 << 10

// maxRequestBytes is the default /solve body bound (Config.MaxBody); a
// platform description is tiny, so anything near the limit is abuse,
// not traffic.
const maxRequestBytes = 16 << 20

// statusClientClosedRequest is the de-facto (nginx) status for "the
// client went away before we could answer"; no stdlib constant exists.
const statusClientClosedRequest = 499

// Handler returns the service's HTTP surface:
//
//	POST /solve   — one Request in, one Response out (JSON)
//	GET  /metrics — Prometheus text exposition of the metric registry
//	GET  /healthz — readiness probe: 200 while serving, 503 once
//	                draining or the admission queue is saturated
//	GET  /livez   — liveness probe: 200 until the process exits
//
// With Config.Pprof set, the standard net/http/pprof handlers mount
// under /debug/pprof/.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/livez", s.handleLivez)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// WriteError writes the JSON error envelope of every non-2xx answer,
// the shard's and the router's alike: {"error": msg}.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}

// WriteJSON writes v as an indented JSON body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to do on error
}

// solveStatus maps a Solve error onto the response status, setting any
// per-status headers (Retry-After for sheds) on the way. Failures the
// degradation contract converted never reach here: Solve already turned
// them into 200s with Degraded set (see degraded.go), so this switch
// only sees sheds the request opted out of, timeouts/cancellations
// without an opt-in, and the non-convertible errors.
func solveStatus(w http.ResponseWriter, err error) int {
	var oe *OverloadError
	switch {
	case errors.As(err, &oe):
		// Shed: tell the client when the predicted backlog drains.
		w.Header().Set("Retry-After", strconv.FormatInt(int64(oe.RetryAfter.Seconds()+0.5), 10))
		return http.StatusTooManyRequests
	case errors.Is(err, ErrOverload):
		w.Header().Set("Retry-After", "1")
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, ErrInternal):
		// A recovered panic, a violated invariant — ours, and it must
		// show up as a 5xx in monitoring.
		return http.StatusInternalServerError
	default:
		// Validation errors (malformed platform, invalid op/n/deadline,
		// oversized values) are the client's fault.
		return http.StatusBadRequest
	}
}

func (s *Service) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST a solve request")
		return
	}
	if err := s.cfg.Faults.Fire(r.Context(), faultinject.SiteHandler); err != nil {
		status := http.StatusInternalServerError
		var se *faultinject.StatusError
		if errors.As(err, &se) {
			status = se.Code
		}
		WriteError(w, status, err.Error())
		return
	}
	req, err := decodeBody(readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody), r.ContentLength, s.cfg.MaxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return
		}
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	resp, err := s.Solve(r.Context(), &req)
	if err != nil {
		WriteError(w, solveStatus(w, err), err.Error())
		return
	}
	writeResponse(w, resp)
}

// readBody reads r to its end or its first error. The buffer starts
// at the request's Content-Length, plus room to read the EOF without
// growing, when that is within limit and maxBodyPresize: a larger
// claimed length grows the buffer only as the bytes arrive.
func readBody(r io.Reader, contentLength, limit int64) ([]byte, error) {
	size := int64(512)
	if contentLength > 0 && contentLength <= min(limit, maxBodyPresize) {
		size = contentLength + 1
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// decodeBody decodes a /solve body that was read up to readErr exactly
// as json.NewDecoder over the body's reader does: the first JSON value
// decides, so a body past the size limit whose value ends inside the
// limit still decodes, and a read error surfaces only when the value
// needed more bytes.
func decodeBody(body []byte, readErr error) (Request, error) {
	if readErr == nil {
		return DecodeRequest(body)
	}
	return decodeRequestJSON(io.MultiReader(bytes.NewReader(body), errReader{readErr}))
}

// errReader fails every read with its error.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// writeResponse writes a successful /solve answer. An encoding error
// leaves the body empty, as WriteJSON does.
func writeResponse(w http.ResponseWriter, resp *Response) {
	b, err := AppendResponse(make([]byte, 0, responseSize(resp)), resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err == nil {
		_, _ = w.Write(b) // the status line is already out; nothing to do on error
	}
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET the metrics")
		return
	}
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	_ = s.m.reg.WritePrometheus(w) // headers are out; nothing to do on error
}

// Health is the GET /healthz (readiness) and GET /livez (liveness)
// body: status plus enough build identity to tell WHAT is answering.
type Health struct {
	Status        string  `json:"status"`
	GoVersion     string  `json:"go_version"`
	Module        string  `json:"module,omitempty"`
	ModuleVersion string  `json:"module_version,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Draining is true once graceful shutdown has begun: the process is
	// still alive and finishing in-flight work, but load balancers
	// should stop routing new traffic here.
	Draining bool `json:"draining,omitempty"`
	// Saturated is true while the admission queue is full — new solves
	// would be shed, so routing elsewhere is kinder.
	Saturated bool `json:"saturated,omitempty"`
}

func (s *Service) health() Health {
	h := Health{
		Status:        "ok",
		GoVersion:     runtime.Version(),
		UptimeSeconds: s.uptime().Seconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		h.Module = bi.Main.Path
		h.ModuleVersion = bi.Main.Version
	}
	return h
}

// handleHealthz is READINESS: 503 once draining or while the admission
// queue is saturated, so load balancers stop routing; 200 otherwise.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	h.Draining = s.Draining()
	h.Saturated = s.adm.saturated()
	if h.Draining || h.Saturated {
		h.Status = "draining"
		if !h.Draining {
			h.Status = "overloaded"
		}
		WriteJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	WriteJSON(w, http.StatusOK, h)
}

// handleLivez is LIVENESS: 200 for as long as the process can answer
// at all — draining included; only exit ends it.
func (s *Service) handleLivez(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.health())
}
