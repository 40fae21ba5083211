package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var n lib.Namer = lib.Widget{}
	lib.Live()
	fmt.Println(lib.Used(), n.Name())
}
