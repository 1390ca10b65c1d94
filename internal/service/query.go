package service

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	"confmask/internal/query"
)

// This file is the daemon side of the verification query API:
// POST /v1/jobs/{id}/query takes a JSON batch of predicates and streams
// NDJSON results. Everything is served from cached state — the first
// batch against a job parses and simulates the job's original and
// anonymized configuration sets once (both are already in memory or in
// the journal's result document), and every later batch reuses that
// engine, whose per-destination path caches make each predicate a
// lookup. queries_total counts predicates answered;
// query_cache_hits_total counts batches that found the engine already
// built.

// queryBatch is the request payload.
type queryBatch struct {
	Queries []query.Query `json:"queries"`
}

// queryEntry is the per-job engine cache slot. The once makes concurrent
// first batches build the engine exactly once; err is sticky so a job
// whose configs cannot be re-simulated fails every batch the same way.
type queryEntry struct {
	once sync.Once
	eng  *query.Engine
	err  error
}

// queryEntryFor returns the job's cache slot, reporting whether it
// already existed (the metric's definition of a cache hit).
func (s *Server) queryEntryFor(id string) (*queryEntry, bool) {
	s.queryMu.Lock()
	defer s.queryMu.Unlock()
	if s.queryCache == nil {
		s.queryCache = make(map[string]*queryEntry)
	}
	ent, ok := s.queryCache[id]
	if !ok {
		ent = &queryEntry{}
		s.queryCache[id] = ent
	}
	return ent, ok
}

// buildQueryEngine re-simulates the job's two networks — the original
// from the submitted configs, the anonymized from the result — and wires
// them into an engine (original as pathdiff baseline). Deterministic:
// same job, same engine, regardless of which daemon start builds it.
func (s *Server) buildQueryEngine(j *job) (*query.Engine, error) {
	j.mu.Lock()
	req, result := j.req, j.result
	j.mu.Unlock()
	if req == nil || len(req.Configs) == 0 {
		return nil, errors.New("job request unavailable")
	}
	if len(result) == 0 {
		return nil, errors.New("job result unavailable")
	}
	par := req.Options.Parallelism
	if par == 0 {
		par = s.cfg.Parallelism
	}
	orig, err := query.FromConfigs(req.Configs, par)
	if err != nil {
		return nil, fmt.Errorf("re-simulating original configs: %w", err)
	}
	anon, err := query.FromConfigs(result, par)
	if err != nil {
		return nil, fmt.Errorf("re-simulating anonymized configs: %w", err)
	}
	return query.New(anon, query.Options{Baseline: orig, Timeout: s.cfg.QueryTimeout}), nil
}

// handleQuery answers a verification batch for a done job: 404 unknown,
// 410 journal-tombstoned, 409 not done, 400 malformed/empty/oversized
// batch. Results stream as NDJSON in query order (chunked flushes), and
// are byte-identical for a given job and batch across restarts and
// parallelism settings. A trailing stats line reports the engine's
// counters for the batch.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.store.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if j.isTombstone() {
		writeError(w, http.StatusGone, "job %q output lost: %s", j.id, j.status().Error)
		return
	}
	st := j.status()
	if st.State != StateDone {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": fmt.Sprintf("job is %s, not done", st.State),
			"state": st.State,
		})
		return
	}
	buf := wireBufs.Get().(*[]byte)
	defer func() {
		if cap(*buf) <= maxPooledWire {
			wireBufs.Put(buf)
		}
	}()
	qs, err := decodeBatch(http.MaxBytesReader(w, r.Body, 32<<20), buf)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid query batch: %v", err)
		return
	}
	if len(qs) == 0 {
		writeError(w, http.StatusBadRequest, "query batch is empty")
		return
	}
	if len(qs) > s.cfg.MaxQueryBatch {
		writeError(w, http.StatusBadRequest, "query batch of %d exceeds limit %d",
			len(qs), s.cfg.MaxQueryBatch)
		return
	}

	ent, hit := s.queryEntryFor(j.id)
	if hit {
		s.metrics.QueryCacheHit.Add(1)
	}
	ent.once.Do(func() { ent.eng, ent.err = s.buildQueryEngine(j) })
	if ent.err != nil {
		writeError(w, http.StatusInternalServerError, "cannot build query engine: %v", ent.err)
		return
	}
	s.metrics.QueriesTotal.Add(int64(len(qs)))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Evaluate and stream in fixed chunks: clients see progress on long
	// batches, and the emitted byte stream stays independent of chunking
	// (results are written strictly in query order). Each chunk's lines
	// are appended into the buffer the request was read into, which the
	// decoded queries no longer reference, and written at once.
	const chunk = 128
	before := ent.eng.Stats()
	out := *buf
	for off := 0; off < len(qs); off += chunk {
		results := ent.eng.Run(r.Context(), qs[off:min(off+chunk, len(qs))])
		out = out[:0]
		for i := range results {
			results[i].Index += off
			out = appendResult(out, &results[i])
		}
		if _, err := w.Write(out); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	after := ent.eng.Stats()
	*buf = appendStats(out[:0], query.Stats{
		Queries:        after.Queries - before.Queries,
		WhatIfRetraced: after.WhatIfRetraced - before.WhatIfRetraced,
		WhatIfReused:   after.WhatIfReused - before.WhatIfReused,
	})
	_, _ = w.Write(*buf)
	if flusher != nil {
		flusher.Flush()
	}
}
