package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nucleodb"
	"nucleodb/internal/compress"
)

// failingDB is a database whose every search fails with err.
type failingDB struct{ err error }

func (f failingDB) SearchCodesWithStatsContext(context.Context, []byte, nucleodb.SearchOptions) ([]nucleodb.Result, nucleodb.SearchStats, error) {
	return nil, nucleodb.SearchStats{}, f.err
}

func (f failingDB) SearchBatchWithStatsContext(context.Context, []string, nucleodb.SearchOptions, int) ([][]nucleodb.Result, nucleodb.SearchStats, error) {
	return nil, nucleodb.SearchStats{}, f.err
}

func (failingDB) NumSequences() int { return 0 }
func (failingDB) TotalBases() int   { return 0 }

// TestSearchErrorClasses: each class of search failure gets its own
// status and its own counter. What the request got wrong is a 400 and
// counted nowhere; a corrupt posting list or a failed read is a 500 in
// server_errors_total — the server's fault, not the client's; a deadline
// is a 504 in server_timeouts_total; a vanished client gets no answer.
func TestSearchErrorClasses(t *testing.T) {
	db := testDB(t)
	badOpts := nucleodb.DefaultSearchOptions()
	badOpts.Band = 0
	_, errOptions := db.SearchCodes([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}, badOpts)
	_, errShort := db.SearchCodes([]byte{0, 1, 2}, nucleodb.DefaultSearchOptions())
	_, errLetters := db.Search("ACGT!ACGTACGTACGT", nucleodb.DefaultSearchOptions())
	if errOptions == nil || errShort == nil || errLetters == nil {
		t.Fatalf("the facade accepted a bad request: options %v, short query %v, letters %v", errOptions, errShort, errLetters)
	}
	corrupt := fmt.Errorf("nucleodb: %w", fmt.Errorf("core: term 7 postings: %w",
		fmt.Errorf("postings: entry 3: %w: runs past the end of the list", compress.ErrCorrupt)))
	readFailed := fmt.Errorf("nucleodb: %w", errors.New("index: disk read at 4096+12: input/output error"))

	cases := []struct {
		name             string
		err              error
		status           int
		errors, timeouts int64
	}{
		{"options Validate rejects", errOptions, http.StatusBadRequest, 0, 0},
		{"query shorter than the interval", errShort, http.StatusBadRequest, 0, 0},
		{"letters outside the alphabet", errLetters, http.StatusBadRequest, 0, 0},
		{"corrupt posting list", corrupt, http.StatusInternalServerError, 1, 0},
		{"failed paged read", readFailed, http.StatusInternalServerError, 1, 0},
		{"deadline", fmt.Errorf("nucleodb: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, 0, 1},
		{"client gone", fmt.Errorf("nucleodb: %w", context.Canceled), http.StatusOK, 0, 0}, // nothing is written
	}
	for _, tc := range cases {
		for _, path := range []string{"/search", "/batch"} {
			s := newTestServer(t, db, nil)
			s.db = failingDB{tc.err}
			errors0, timeouts0 := s.mErrors.Value(), s.mTimeouts.Value()
			var rec *httptest.ResponseRecorder
			var body []byte
			if path == "/search" {
				rec, body = get(t, s.Handler(), "/search?q=ACGTACGTACGTACGT&nocache=1")
			} else {
				rec, body = post(t, s.Handler(), "/batch", map[string]any{"queries": []string{"ACGTACGTACGTACGT"}})
			}
			if rec.Code != tc.status {
				t.Errorf("%s %s: status %d, want %d (%s)", path, tc.name, rec.Code, tc.status, body)
			}
			if got := s.mErrors.Value() - errors0; got != tc.errors {
				t.Errorf("%s %s: server_errors_total moved by %d, want %d", path, tc.name, got, tc.errors)
			}
			if got := s.mTimeouts.Value() - timeouts0; got != tc.timeouts {
				t.Errorf("%s %s: server_timeouts_total moved by %d, want %d", path, tc.name, got, tc.timeouts)
			}
			switch tc.status {
			case http.StatusBadRequest, http.StatusInternalServerError:
				var resp errorResponse
				if err := json.Unmarshal(body, &resp); err != nil || resp.Error != tc.err.Error() {
					t.Errorf("%s %s: body %q, want the error %q", path, tc.name, body, tc.err)
				}
			case http.StatusOK:
				if len(body) != 0 {
					t.Errorf("%s %s: wrote %q to a client that had gone", path, tc.name, body)
				}
			}
		}
	}
}

// TestPagedShortReadReturns500 reaches the 500 path on a real paged
// database: its index is cut to half its size while it serves, and a
// search that reads a list past the cut is answered 500 with the read
// error and counted once in server_errors_total.
func TestPagedShortReadReturns500(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	if err := testDB(t).SaveSegmented(dir); err != nil {
		t.Fatal(err)
	}
	paged, err := nucleodb.OpenPaged(dir, nucleodb.DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	s := newTestServer(t, paged, nil)
	q := testQueries(paged, 1, 9)[0]
	paths, err := filepath.Glob(filepath.Join(dir, "*.ndx"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no index files under %s: %v", dir, err)
	}
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(p, info.Size()/2); err != nil {
			t.Fatal(err)
		}
	}
	errors0 := s.mErrors.Value()
	rec, body := get(t, s.Handler(), "/search?q="+q+"&nocache=1")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rec.Code, body)
	}
	var resp errorResponse
	if err := json.Unmarshal(body, &resp); err != nil || !strings.Contains(resp.Error, "EOF") {
		t.Fatalf("500 body %q, want an error JSON naming the short read", body)
	}
	if got := s.mErrors.Value() - errors0; got != 1 {
		t.Fatalf("server_errors_total moved by %d, want 1", got)
	}
}

// TestErrInvalidSurvivesTheFacade: the sentinel the server keys its 400s
// on is still reachable through every wrapping layer, and the text is
// what it was before errors were typed.
func TestErrInvalidSurvivesTheFacade(t *testing.T) {
	db := testDB(t)
	opts := nucleodb.DefaultSearchOptions()
	opts.Candidates = 0
	_, err := db.SearchCodes([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}, opts)
	if !errors.Is(err, nucleodb.ErrInvalid) {
		t.Fatalf("options error %v does not match ErrInvalid", err)
	}
	if want := "nucleodb: core: candidate budget 0 must be positive"; err.Error() != want {
		t.Fatalf("options error text = %q, want %q", err, want)
	}
	if verr := opts.Validate(); !errors.Is(verr, nucleodb.ErrInvalid) {
		t.Fatalf("Validate error %v does not match ErrInvalid", verr)
	}
	_, _, err = db.SearchBatchWithStatsContext(context.Background(), []string{"ACGTACGTACGTACGT", "AC#T"}, nucleodb.DefaultSearchOptions(), 1)
	if !errors.Is(err, nucleodb.ErrInvalid) || !strings.Contains(err.Error(), "query 1") {
		t.Fatalf("batch with bad letters: %v", err)
	}
	if errors.Is(fmt.Errorf("nucleodb: %w", compress.ErrCorrupt), nucleodb.ErrInvalid) {
		t.Fatal("a corruption error matches ErrInvalid")
	}
}
