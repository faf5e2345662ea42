package service

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeDrainsWhenDone: ending the context drains like a signal —
// beginDrain runs, the server shuts down, and Serve returns nil.
func TestServeDrainsWhenDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	drained := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, "test", "127.0.0.1:0", http.NotFoundHandler(), func() { close(drained) })
	}()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve = %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after its context ended")
	}
	select {
	case <-drained:
	default:
		t.Fatal("Serve returned without calling beginDrain")
	}
}

// TestServeListenError: an address that cannot be bound fails fast,
// without draining anything.
func TestServeListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = Serve(context.Background(), "test", ln.Addr().String(), http.NotFoundHandler(), func() {
		t.Error("beginDrain called on a listen failure")
	})
	if err == nil {
		t.Fatal("Serve on a bound address returned nil")
	}
}
