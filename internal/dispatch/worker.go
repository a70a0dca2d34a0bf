package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/sim"
)

// workerEnv marks a process as a pool worker: Pool re-executes the
// current binary with this set, and MaybeWorker diverts such a process
// into the frame loop before it ever reaches flag parsing.
const workerEnv = "REGSHARED_POOL_WORKER"

// MaybeWorker turns the process into a pool worker — serve frames on
// stdin/stdout until EOF, then exit — when it was spawned by a Pool.
// Every command that accepts -backend (and every test binary whose
// tests build a Pool) calls it first thing in main/TestMain; in a
// normal invocation it is a no-op.
func MaybeWorker() {
	if os.Getenv(workerEnv) == "" {
		return
	}
	if err := ServeWorker(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dispatch worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// ServeWorker runs the pool worker loop: decode one workerRequest frame
// at a time from r, execute it in-process, encode the workerResponse to
// w. Returns nil on EOF (the pool closed our stdin: a graceful
// shutdown). The loop is deliberately one frame
// at a time — the pool owns scheduling, and one crashed simulation must
// take down nothing but its own process.
func ServeWorker(r io.Reader, w io.Writer) error {
	dec := json.NewDecoder(r)
	enc := json.NewEncoder(w)
	for {
		var fr workerRequest
		if err := dec.Decode(&fr); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("decoding request frame: %w", err)
		}
		resp := workerResponse{ID: fr.ID}
		res, err := sim.Simulate(context.Background(), fr.Req)
		if err != nil {
			resp.Err = err.Error()
			resp.Kind = errorKind(err)
		} else {
			resp.Result = res
		}
		if err := enc.Encode(resp); err != nil {
			return fmt.Errorf("encoding response frame: %w", err)
		}
	}
}
