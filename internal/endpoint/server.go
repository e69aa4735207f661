// Package endpoint implements the SPARQL protocol over HTTP — the service
// interface through which H-BOLD talks to every Linked Data source — and a
// simulation layer reproducing the operational behaviour of public
// endpoints: intermittent availability, latency, and engine-specific
// quirks (aggregate support, result-size caps) that the paper's Index
// Extraction must work around with pattern strategies.
//
// Each step of the protocol has one implementation that every surface
// calls: Handler is what sparqld mounts; its request side (ServeUpdate:
// read an update out of a POST, the body cap, the read-only rule, the
// acknowledgement) is also what the presentation layer's /api/update
// runs, its response side is results.Serve, the loop /api/query and
// `hbold query -stream` share, and HTTPClient decodes what that loop
// wrote with one token-wise reader whether the caller streams or
// collects.
package endpoint

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/sparql"
	"repro/internal/sparql/results"
	"repro/internal/store"
)

// Handler serves the SPARQL protocol (GET ?query= and POST form) over a
// store, plus the SPARQL 1.1 Update surface when an UpdateFunc is wired.
type Handler struct {
	Store store.Queryable
	// Quirks optionally constrains the engine like a real implementation
	// would; nil means a fully capable endpoint.
	Quirks *Quirks
	// Log, when set, emits one access record per request: method, query
	// hash (queries can be kilobytes; the hash correlates repeats without
	// flooding the log), rows streamed, duration and HTTP status.
	Log *slog.Logger
	// Update, when non-nil, enables the update surface: POSTs with
	// Content-Type application/sparql-update (raw request body) or an
	// update= form field are applied through it. nil answers every
	// update request with 403, like ReadOnly. The callback shape (rather
	// than a store.Backend) keeps this package free of the update
	// subsystem; wire internal/update.ApplyText through it.
	Update UpdateFunc
	// ReadOnly refuses update requests with 403 even when Update is set
	// — the -readonly serving mode.
	ReadOnly bool
}

// UpdateFunc applies one SPARQL Update request text, returning the net
// triple delta.
type UpdateFunc func(ctx context.Context, text string) (added, removed int, err error)

// QueryHash identifies a query in access logs without reproducing its
// text: the first 8 bytes of its SHA-256, hex-encoded.
func QueryHash(q string) string {
	sum := sha256.Sum256([]byte(q))
	return hex.EncodeToString(sum[:8])
}

// ServeHTTP implements the SPARQL 1.1 protocol subset: query via GET
// parameter or POST form, update via POST (see ServeUpdate), the result
// in the negotiated format (SPARQL JSON by default) through
// results.Serve — rows leave while the evaluation yields them, gathered
// into 32 KiB writes and never held more than 10 ms, a client that hangs up cancels the evaluation through the
// request context, a failure before the first row is answered (and
// logged) as a 500, and a mid-stream failure never ends as a well-formed
// short result.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var query string
	status := http.StatusOK
	rows := 0
	if h.Log != nil {
		start := time.Now()
		defer func() {
			h.Log.Info("sparql",
				"method", r.Method,
				"query", QueryHash(query),
				"rows", rows,
				"dur", time.Since(start),
				"status", status)
		}()
	}
	fail := func(msg string, code int) {
		status = code
		http.Error(w, msg, code)
	}
	var formatParam string
	switch r.Method {
	case http.MethodGet:
		form := r.URL.Query()
		query, formatParam = form.Get("query"), form.Get("format")
	case http.MethodPost:
		query, status = ServeUpdate(w, r, h.ReadOnly || h.Update == nil, func(ctx context.Context, text string) (any, error) {
			added, removed, err := h.Update(ctx, text)
			return updateAck{added, removed}, err
		})
		if status != 0 {
			return
		}
		status = http.StatusOK // not an update: the form carries a query
		query, formatParam = r.PostForm.Get("query"), r.PostForm.Get("format")
	default:
		fail("method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if query == "" {
		fail("missing query parameter", http.StatusBadRequest)
		return
	}
	format, err := results.Negotiate(formatParam, r.Header.Get("Accept"), results.JSON)
	if err != nil {
		fail(err.Error(), http.StatusBadRequest)
		return
	}
	rs, err := EvaluateStream(r.Context(), h.Store, query, h.Quirks)
	if err != nil {
		fail(err.Error(), http.StatusBadRequest)
		return
	}
	defer rs.Close()
	var se *results.StatusError
	switch rows, err = results.Serve(w, format, rs); {
	case errors.Is(err, results.ErrConstruct):
		fail(err.Error(), http.StatusBadRequest)
	case errors.As(err, &se):
		status = se.Status
	}
}

// updateAck is the protocol handler's update acknowledgement: the net
// triple delta of the request.
type updateAck struct {
	Added   int `json:"added"`
	Removed int `json:"removed"`
}

// MaxBodyBytes caps the request bodies the update and query-builder
// surfaces read into memory; a larger one is answered 413. (An update
// batch of 2000 triples with 500-character literals is about 1 MB.)
const MaxBodyBytes = 10 << 20

// BodyErrorStatus is the status for a request body that could not be
// read or decoded: 413 when it outgrew MaxBodyBytes, 400 otherwise.
func BodyErrorStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// ServeUpdate is the request side of SPARQL 1.1 Update over HTTP. It
// reads the update out of a POST — the raw body under Content-Type
// application/sparql-update, otherwise the update= field of the form,
// either capped at MaxBodyBytes — refuses it with 403 when readOnly (the
// surface exists but does not accept mutation), runs apply and answers
// with the acknowledgement it returns, JSON-encoded, or 400 with its
// error. It returns the update text and the status it answered with; a
// POST that carries no update at all is left unanswered (status 0) with
// r.PostForm parsed, for a caller that serves queries on the same route.
func ServeUpdate(w http.ResponseWriter, r *http.Request, readOnly bool, apply func(ctx context.Context, text string) (ack any, err error)) (text string, status int) {
	fail := func(msg string, code int) (string, int) {
		http.Error(w, msg, code)
		return text, code
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/sparql-update") {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return fail("reading request body", BodyErrorStatus(err))
		}
		text = string(body)
	} else {
		if err := r.ParseForm(); err != nil {
			return fail("bad form", BodyErrorStatus(err))
		}
		if text = r.PostForm.Get("update"); text == "" {
			return "", 0
		}
	}
	if readOnly {
		return fail("read-only endpoint: updates are not accepted", http.StatusForbidden)
	}
	if text == "" {
		return fail("empty update request", http.StatusBadRequest)
	}
	ack, err := apply(r.Context(), text)
	if err != nil {
		return fail(err.Error(), http.StatusBadRequest)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ack)
	return text, http.StatusOK
}

// Evaluate runs a query against st honouring the endpoint quirks,
// materializing the full result.
func Evaluate(st store.Queryable, query string, q *Quirks) (*sparql.Result, error) {
	rs, err := EvaluateStream(context.Background(), st, query, q)
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}

// EvaluateStream runs a query against st honouring the endpoint quirks,
// returning the rows as a stream. A MaxRows quirk becomes a stream
// truncation — real endpoints silently cap result sets, and a streaming
// engine caps them by simply stopping.
func EvaluateStream(ctx context.Context, st store.Queryable, query string, q *Quirks) (*sparql.RowSeq, error) {
	parsed, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	if q != nil {
		if err := q.Check(parsed); err != nil {
			return nil, err
		}
	}
	rs, err := parsed.Stream(ctx, st)
	if err != nil {
		return nil, err
	}
	if q != nil && q.MaxRows > 0 && !rs.Ask {
		rs = rs.Limit(q.MaxRows)
	}
	return rs, nil
}

// Quirks models implementation differences between SPARQL engines that
// the paper's pattern strategies must cope with [Benedetti et al. 2014].
type Quirks struct {
	// Name labels the simulated engine profile ("virtuoso-like", ...).
	Name string
	// NoAggregates rejects queries containing COUNT/SUM/AVG/MIN/MAX.
	NoAggregates bool
	// NoGroupBy rejects queries with GROUP BY even if aggregates work.
	NoGroupBy bool
	// MaxRows silently truncates SELECT results to this many rows (0 = no cap).
	MaxRows int
	// NoOptional rejects queries containing OPTIONAL.
	NoOptional bool
	// Broken rejects every query: the endpoint answers HTTP but is not a
	// working SPARQL service ("not compatible with the index extraction
	// phase", §3.3).
	Broken bool
}

// Check rejects queries the simulated engine cannot run.
func (q *Quirks) Check(parsed *sparql.Query) error {
	if q.Broken {
		return fmt.Errorf("endpoint %s: not a working SPARQL service", q.Name)
	}
	if q.NoGroupBy && len(parsed.GroupBy) > 0 {
		return fmt.Errorf("endpoint %s: GROUP BY not supported", q.Name)
	}
	if q.NoAggregates {
		for _, it := range parsed.Select {
			if it.Expr != nil && sparql.HasAggregate(it.Expr) {
				return fmt.Errorf("endpoint %s: aggregates not supported", q.Name)
			}
		}
		if len(parsed.Having) > 0 {
			return fmt.Errorf("endpoint %s: aggregates not supported", q.Name)
		}
	}
	if q.NoOptional && containsOptional(parsed.Where) {
		return fmt.Errorf("endpoint %s: OPTIONAL not supported", q.Name)
	}
	return nil
}

func containsOptional(g *sparql.GroupPattern) bool {
	for _, el := range g.Elems {
		switch x := el.(type) {
		case *sparql.OptionalPattern:
			return true
		case *sparql.GroupPattern:
			if containsOptional(x) {
				return true
			}
		case *sparql.UnionPattern:
			if containsOptional(x.Left) || containsOptional(x.Right) {
				return true
			}
		case *sparql.MinusPattern:
			if containsOptional(x.Inner) {
				return true
			}
		}
	}
	return false
}

// Serve starts an httptest server exposing the store as a SPARQL endpoint
// and returns it; the caller owns Close.
func Serve(st store.Queryable, quirks *Quirks) *httptest.Server {
	return httptest.NewServer(&Handler{Store: st, Quirks: quirks})
}

// ServeFlaky starts a protocol server that answers with HTTP 500 while
// *failures > 0 (decrementing it), then behaves normally. It exercises the
// client retry path.
func ServeFlaky(st store.Queryable, failures *int) *httptest.Server {
	h := &Handler{Store: st}
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if *failures > 0 {
			*failures--
			http.Error(w, "transient failure", http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	}))
}

// Standard quirk profiles named after the behaviours observed on public
// endpoints (the engines themselves are not named in the paper; profiles
// capture the failure modes its references describe).
var (
	// ProfileFull supports everything.
	ProfileFull = &Quirks{Name: "full"}
	// ProfileNoAgg rejects aggregate queries — extraction must fall back
	// to enumerating and counting client-side.
	ProfileNoAgg = &Quirks{Name: "no-aggregates", NoAggregates: true, NoGroupBy: true}
	// ProfileNoGroupBy supports plain COUNT but rejects GROUP BY — the
	// middle tier of engine capabilities the pattern strategies probe.
	ProfileNoGroupBy = &Quirks{Name: "no-group-by", NoGroupBy: true}
	// ProfileCapped truncates results at 10000 rows — extraction must
	// paginate with LIMIT/OFFSET.
	ProfileCapped = &Quirks{Name: "capped", MaxRows: 10000}
	// ProfileLegacy rejects aggregates and OPTIONAL and caps results —
	// the worst endpoints on the open web.
	ProfileLegacy = &Quirks{Name: "legacy", NoAggregates: true, NoGroupBy: true, NoOptional: true, MaxRows: 1000}
	// ProfileBroken answers the protocol but fails every query.
	ProfileBroken = &Quirks{Name: "broken", Broken: true}
)
