// Compiles r5_header.hh into an object outside the checked directories.
#include "src/os/r5_header.hh"
