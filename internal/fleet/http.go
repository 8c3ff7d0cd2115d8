package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Handler exposes the service over HTTP:
//
//	POST /jobs           submit a job (JSON body: Job); ?wait=1 blocks
//	                     until the job is terminal and returns its
//	                     final record. Overload answers are explicit:
//	                     429 shedding/saturated/throttled (with
//	                     Retry-After), 503 draining/closed or a journal
//	                     that cannot take the admission, 400 invalid
//	                     job.
//	GET  /jobs           list job records (JSON); ?state= narrows to
//	                     queued|running|done|failed|shed or the special
//	                     dead (dead-lettered jobs)
//	GET  /jobs/{id}      job record snapshot (JSON)
//	GET  /jobs/{id}/report  final report (text; 409 until terminal)
//	POST /tenants/{tenant}/limit  install a tenant admission contract
//	                     (JSON body: TenantLimit); journaled when the
//	                     service is durable
//	GET  /fleetz         fleet aggregate: ladder state, queue, per-
//	                     tenant and fleet-wide p50/p99, admission
//	                     limits, journal stats, outage ledger
//	GET  /healthz        liveness + ladder state
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		state := r.URL.Query().Get("state")
		switch state {
		case "", "queued", "running", "done", "failed", "shed", "dead":
		default:
			http.Error(w, fmt.Sprintf("unknown state filter %q", state), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, s.Jobs(state))
	})
	mux.HandleFunc("POST /tenants/{tenant}/limit", func(w http.ResponseWriter, r *http.Request) {
		var limit TenantLimit
		if err := json.NewDecoder(r.Body).Decode(&limit); err != nil {
			httpError(w, fmt.Errorf("%w: decoding body: %v", ErrBadJob, err))
			return
		}
		tenant := r.PathValue("tenant")
		if err := s.SetTenantLimit(tenant, limit); err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, map[string]any{"tenant": tenant, "limit": limit})
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var job Job
		if err := json.NewDecoder(r.Body).Decode(&job); err != nil {
			httpError(w, fmt.Errorf("%w: decoding body: %v", ErrBadJob, err))
			return
		}
		rec, err := s.Submit(job)
		if err != nil {
			httpError(w, err)
			return
		}
		snap, _ := s.Get(rec.ID)
		if r.URL.Query().Get("wait") == "1" {
			snap, err = s.Wait(r.Context(), rec.ID)
			if err != nil {
				httpError(w, err)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, snap)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		rec, ok := getRecord(s, w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, rec)
	})
	mux.HandleFunc("GET /jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		rec, ok := getRecord(s, w, r)
		if !ok {
			return
		}
		switch rec.State {
		case StateDone:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Write(rec.Report())
		case StateFailed, StateShed:
			http.Error(w, fmt.Sprintf("job %d %s: %s", rec.ID, rec.State, rec.Err), http.StatusConflict)
		default:
			http.Error(w, fmt.Sprintf("job %d still %s", rec.ID, rec.State), http.StatusConflict)
		}
	})
	mux.HandleFunc("GET /fleetz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, s.Fleetz())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, map[string]any{"ok": true, "state": s.State()})
	})
	return mux
}

func getRecord(s *Service, w http.ResponseWriter, r *http.Request) (Record, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad job id", http.StatusBadRequest)
		return Record{}, false
	}
	rec, ok := s.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown job %d", id), http.StatusNotFound)
		return Record{}, false
	}
	return rec, true
}

// httpError maps service errors onto the status codes the overload
// contract promises: saturation, shedding, and rate-limit throttling
// are retryable 429s (with Retry-After), draining, shutdown and a
// stopped journal are 503s, validation is a 400. Retry-After is always a positive integer
// of seconds — the throttle hint rounds up so a client that honors it
// finds a token waiting.
func httpError(w http.ResponseWriter, err error) {
	var throttle *ThrottleError
	switch {
	case errors.As(err, &throttle):
		secs := int(throttle.RetryAfter/time.Second) + 1
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrFleetSaturated), errors.Is(err, ErrFleetShedding):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrFleetDraining), errors.Is(err, ErrFleetClosed), errors.Is(err, ErrJournal):
		w.Header().Set("Retry-After", "5")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrBadJob):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
