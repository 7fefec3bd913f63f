// Command nachoasm is a standalone RV32IM assembler and listing tool for
// the memory layout used by the NACHO simulator. It assembles a source file
// and prints an address/machine-code/disassembly listing, optionally writing
// flat binary segments and dumping the symbol table.
//
// Usage:
//
//	nachoasm prog.s                 # listing to stdout
//	nachoasm -symbols prog.s        # plus the symbol table
//	nachoasm -o prog.bin prog.s     # raw little-endian image of .text
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"nacho/internal/asm"
	"nacho/internal/isa"
	"nacho/internal/mem"
)

func main() {
	var (
		out      = flag.String("o", "", "write the raw .text image to this file")
		symbols  = flag.Bool("symbols", false, "dump the symbol table")
		textBase = flag.Uint("text", mem.TextBase, "text base address")
		dataBase = flag.Uint("data", mem.DataBase, "data base address")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: nachoasm [flags] prog.s")
		os.Exit(2)
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := asm.Assemble(string(src), asm.Options{
		TextBase: uint32(*textBase),
		DataBase: uint32(*dataBase),
	})
	if err != nil {
		fatal(err)
	}

	// Invert the symbol table for listing annotations.
	byAddr := map[uint32][]string{}
	for name, addr := range prog.Symbols {
		byAddr[addr] = append(byAddr[addr], name)
	}
	for _, names := range byAddr {
		sort.Strings(names)
	}

	for _, seg := range prog.Segments {
		if seg.Addr == uint32(*textBase) {
			fmt.Printf("; .text %d bytes at 0x%08x, entry 0x%08x\n", len(seg.Data), seg.Addr, prog.Entry)
			for i := 0; i+4 <= len(seg.Data); i += 4 {
				addr := seg.Addr + uint32(i)
				w := uint32(seg.Data[i]) | uint32(seg.Data[i+1])<<8 |
					uint32(seg.Data[i+2])<<16 | uint32(seg.Data[i+3])<<24
				for _, n := range byAddr[addr] {
					fmt.Printf("%s:\n", n)
				}
				in, err := isa.Decode(w)
				text := "??"
				if err == nil {
					text = in.String()
				}
				fmt.Printf("  %08x:  %08x  %s\n", addr, w, text)
			}
			if *out != "" {
				if err := os.WriteFile(*out, seg.Data, 0o644); err != nil {
					fatal(err)
				}
			}
		} else {
			fmt.Printf("; .data %d bytes at 0x%08x\n", len(seg.Data), seg.Addr)
		}
	}

	if *symbols {
		fmt.Println("; symbols")
		names := make([]string, 0, len(prog.Symbols))
		for n := range prog.Symbols {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return prog.Symbols[names[i]] < prog.Symbols[names[j]] })
		for _, n := range names {
			fmt.Printf("  %08x  %s\n", prog.Symbols[n], n)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nachoasm:", err)
	os.Exit(1)
}
