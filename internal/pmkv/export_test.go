package pmkv

import "strings"

// RunScriptRecyclingEarly is the scripted single-shard run on an engine
// that recycles entry lines one watermark early (plantRecycleEarly), or —
// planted false — on an honest one, with what the engine's heap did. It is
// exported to this package's external tests only, which drive it with the
// crash fuzzer's own cases: the fuzz package imports this one, so the
// in-package tests cannot.
func RunScriptRecyclingEarly(cfg Config, spec ScriptSpec, planted bool) (*RunResult, Retention, error) {
	bug := plantNone
	if planted {
		bug = plantRecycleEarly
	}
	e, out, err := runPlantedEngine(cfg, spec, bug)
	if e == nil {
		return nil, Retention{}, err
	}
	return out, e.Stats().Retention, err
}

// CaughtEarlyRecycle reports whether err is a rejection an early recycle
// may be caught by: Verify's check 5 or a checker verdict. The older
// checks compare with ">=" and are satisfied by the overwriting store
// itself, so any other message means the wrong thing fired.
func CaughtEarlyRecycle(err error) bool {
	return strings.Contains(err.Error(), "was overwritten under a durable head") ||
		strings.Contains(err.Error(), "durable linearizability")
}

// RunScriptSettlingInTranslateOrder is the scripted single-shard run on an
// engine that settles a raced key on the writer it translated last
// (plantTranslateOrderWinner).
func RunScriptSettlingInTranslateOrder(cfg Config, spec ScriptSpec) error {
	_, err := runPlanted(cfg, spec, plantTranslateOrderWinner)
	return err
}

// CaughtStaleServe reports whether err is Verify's check 6, at the fold or
// at the clean drain — the only check a key served from the wrong racer can
// be caught by, since the image and the history are both sound.
func CaughtStaleServe(err error) bool {
	return strings.Contains(err.Error(), "which an earlier fold had already superseded") ||
		strings.Contains(err.Error(), "where recovery rebuilds")
}
