// nlbench — input generator, load generator and layer tracer of the
// NewsLink benchmark. run.py drives it; see README.md.
//
//   nlbench gen  ...   write one workload's inputs for a seed (gen.cc)
//   nlbench load ...   drive a running server over loopback HTTP and
//                      check its answers (load.cc); with --trace 1 it
//                      also times the layers in-process (layers.cc)

#include <cstdio>
#include <string>

#include "common.h"

namespace nlbench {
int GenMain(const Args& args);
int LoadMain(const Args& args);
}  // namespace nlbench

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const nlbench::Args args = nlbench::ParseArgs(argc, argv, 2);
  if (command == "gen") return nlbench::GenMain(args);
  if (command == "load") return nlbench::LoadMain(args);
  std::fprintf(stderr, "usage: nlbench gen|load --flag value ...\n");
  return 1;
}
