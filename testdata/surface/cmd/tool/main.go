// Command tool uses the fixture's exports and defines one flag the README
// passes and one nothing passes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"fixture/internal/lib"
)

func main() {
	passed := flag.Int("passed", 0, "a flag the README passes")
	unpassed := flag.Bool("unpassed", false, "a flag nothing passes")
	flag.Parse()
	var g lib.Guarded
	g.Lock()
	defer g.Unlock()
	fmt.Println(lib.Name("x"), *passed, *unpassed)
	tally := lib.Tally{Seen: *passed, Unread: 1}
	tally.Emitted++
	tally.Unread = 2
	fmt.Println(tally.Seen)
	json.NewEncoder(os.Stdout).Encode(tally)
}
