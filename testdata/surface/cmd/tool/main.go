// Command tool uses the fixture's exports and defines one flag the README
// passes and one nothing passes.
package main

import (
	"flag"
	"fmt"

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
}
