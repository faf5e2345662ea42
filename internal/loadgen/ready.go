// Readiness polling for drivers that boot schedd and immediately send
// load to it.  The probe is /readyz, not /healthz: a draining
// daemon keeps answering /healthz 200 while refusing every new compile
// (503 draining), so a /healthz gate can declare "up" a server that
// will reject the entire run — the drain race the readiness test pins.

package loadgen

import (
	"fmt"
	"net/http"
	"strings"
	"time"
)

// readyPollInterval is the delay between /readyz probes.
const readyPollInterval = 50 * time.Millisecond

// WaitReady polls endpoint's /readyz until it answers 200 OK or the
// budget expires.  Connection errors and non-200 answers (including
// 503 draining) keep polling — a booting daemon and a draining daemon
// look the same from here, and only an actually-ready one may start
// the clock on an open-loop run.
func WaitReady(endpoint string, within time.Duration) error {
	deadline := time.Now().Add(within)
	url := strings.TrimRight(endpoint, "/") + "/readyz"
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: %s not ready within %v", url, within)
		}
		time.Sleep(readyPollInterval)
	}
}
