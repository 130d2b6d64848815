package wal

import (
	"os"
	"sync/atomic"
)

// Crashpoints are the WAL's fault-injection seams: named points on the
// write path (see wal.go for the placement) where a test hook can simulate
// a process death — panic with a sentinel for in-process kill-and-restart
// tests, or os.Exit for child-process kill tests — between any two disk
// state transitions. Production builds never install a hook, so the cost of
// a crashpoint is one atomic pointer load.
//
// The names, in the order a busy log visits them:
//
//	append.start    before the frame is buffered
//	append.framed   frame buffered, not yet flushed or synced
//	append.synced   frame flushed and fsynced (sync-policy permitting)
//	rotate.closed   full segment flushed, synced, and closed
//	rotate.created  next segment created and active
//	compact.written snapshot segment durable, old segments still present
//	compact.removed old segments removed
var crashHook atomic.Pointer[func(string)]

// SetCrashpointHook installs (or, with nil, removes) the global crashpoint
// hook. Test-only: the hook runs inline on the logging goroutine at every
// crashpoint, holding whatever locks the caller holds — it must only
// inspect the name and either return or abort the process/goroutine.
func SetCrashpointHook(f func(name string)) {
	if f == nil {
		crashHook.Store(nil)
		return
	}
	crashHook.Store(&f)
}

// Crashpoint invokes the installed hook, if any, with the point's name.
func Crashpoint(name string) {
	if f := crashHook.Load(); f != nil {
		(*f)(name)
	}
}

// syncFault is the armed FailNextSync error, if any.
var syncFault atomic.Pointer[error]

// FailNextSync arms (or, with nil, disarms) a one-shot fault: the next
// fsync of any log reports err instead of syncing, as a disk answering EIO
// would, after the frame was already flushed to the file. Test-only, like
// SetCrashpointHook.
func FailNextSync(err error) {
	if err == nil {
		syncFault.Store(nil)
		return
	}
	syncFault.Store(&err)
}

// fsync syncs f unless a FailNextSync fault is armed, which it consumes.
func fsync(f *os.File) error {
	if err := syncFault.Swap(nil); err != nil {
		return *err
	}
	return f.Sync()
}
