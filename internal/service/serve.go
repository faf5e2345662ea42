// The daemon lifecycle schedd and schedrouter share: listen, serve,
// and drain on SIGINT/SIGTERM.

package service

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// drainGrace bounds how long in-flight requests may take to finish
// once a daemon starts draining.
const drainGrace = 30 * time.Second

// Serve runs h on addr until ctx is done or the process receives
// SIGINT or SIGTERM, then drains: beginDrain runs first, so /readyz
// flips to 503 and new compile work is refused, then in-flight
// requests get up to 30s to finish.  It returns the listen or serve
// error that ends it early, and nil after a drain.  name prefixes the
// log lines.
func Serve(ctx context.Context, name, addr string, h http.Handler, beginDrain func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("%s: listening on %s", name, ln.Addr())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	beginDrain()
	log.Printf("%s: draining (up to %v)", name, drainGrace)
	shutCtx, cancel := context.WithTimeout(context.Background(), drainGrace)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("%s: drain incomplete: %v", name, err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		log.Printf("%s: %v", name, err)
	}
	return nil
}
