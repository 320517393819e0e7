package executive

import (
	"context"
	"sync"
	"time"
)

// DefaultObservePeriod is the tenant pool's sampling period when its
// ObservePeriod is unset.
const DefaultObservePeriod = 10 * time.Millisecond

// Sampler periodically invokes a sample function on its own goroutine —
// the lifecycle behind the tenant pool's observer. Stop halts the ticker and joins the goroutine
// (leak-free teardown); the owner emits its Final snapshot itself after
// Stop, so a final observation never races a live sample.
type Sampler struct {
	stopCh chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// StartSampler begins calling sample every period (<= 0 selects
// DefaultObservePeriod); sample must be safe to call concurrently with
// the observed run (read atomics and lock-guarded accessors only).
func StartSampler(period time.Duration, sample func()) *Sampler {
	if period <= 0 {
		period = DefaultObservePeriod
	}
	s := &Sampler{stopCh: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return s
}

// Stop halts sampling and joins the sampler goroutine. Safe on a nil
// receiver and idempotent (even across concurrent calls).
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.stopCh) })
	s.wg.Wait()
}

// WatchCancel spawns the Runner's cancellation-watcher goroutine: when ctx
// fires, abort is
// called once with the raw ctx.Err() (the caller wraps it in its own
// error text). The returned stop function releases and joins the
// watcher; call it exactly once, after the run is over, so teardown is
// goroutine-leak-free. A nil or never-cancellable ctx costs nothing.
func WatchCancel(ctx context.Context, abort func(error)) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	runOver := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-ctx.Done():
			abort(ctx.Err())
		case <-runOver:
		}
	}()
	return func() {
		close(runOver)
		<-watchDone
	}
}
