package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nucleodb"
	"nucleodb/internal/server"
)

// served is one database on the deployment path: built, saved as a
// segmented directory, reopened from it and served on a loopback port
// with the service's default configuration and, as cafe-serve does by
// default, the background compactor running.
type served struct {
	db   *nucleodb.Database
	dir  string
	url  string
	http *http.Server
	// serving counts the goroutine in http.Serve; serveErr is what it
	// returned, readable once serving is done.
	serving  sync.WaitGroup
	serveErr error
	// Stage times of the set-up; their sum plus server start is setup_s.
	build, save, open, total time.Duration
	storedBytes              int64
}

func serve(records []nucleodb.Record, dir string) (*served, error) {
	s := &served{dir: dir}
	start := time.Now()
	built, err := nucleodb.Build(records, nucleodb.DefaultBuildConfig())
	if err != nil {
		return nil, err
	}
	s.build = time.Since(start)
	if err := built.SaveSegmented(dir); err != nil {
		return nil, err
	}
	if err := built.Close(); err != nil {
		return nil, err
	}
	s.save = time.Since(start) - s.build
	if s.db, err = nucleodb.Open(dir, nucleodb.DefaultScoring()); err != nil {
		return nil, err
	}
	s.open = time.Since(start) - s.build - s.save
	s.db.StartCompactor(func(err error) { fmt.Fprintln(os.Stderr, "bench: compact:", err) })
	srv, err := server.New(s.db, server.DefaultConfig())
	if err != nil {
		return nil, errors.Join(err, s.db.Close())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, s.db.Close())
	}
	s.url = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: srv.Handler()}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		s.serveErr = s.http.Serve(ln)
	}()
	resp, err := http.Get(s.url + "/healthz")
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errors.Join(fmt.Errorf("healthz: %s", resp.Status), s.close())
	}
	s.total = time.Since(start)
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		s.storedBytes += info.Size()
		return nil
	})
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

// close drains the HTTP server, waits for its goroutine, closes the
// database (which stops the compactor) and removes the directory.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	s.serving.Wait()
	if !errors.Is(s.serveErr, http.ErrServerClosed) {
		err = errors.Join(err, s.serveErr)
	}
	return errors.Join(err, s.db.Close(), os.RemoveAll(s.dir))
}
