// Whole-file reads for the loaders (cache entries, run records, timelines,
// ss/perf/scenario logs).
#pragma once

#include <optional>
#include <string>

namespace dtnsim {

// The file's bytes, or nullopt when it cannot be opened or a read fails.
// Pipes and other unsized files read to their end too.
std::optional<std::string> read_file(const std::string& path);

}  // namespace dtnsim
