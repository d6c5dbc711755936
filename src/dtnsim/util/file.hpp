// Whole-file reads for the loaders (cache entries, run records, timelines)
// and whole-file writes for every artifact a run or a bench emits.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace dtnsim {

// The file's bytes, or nullopt when it cannot be opened or a read fails.
// Pipes and other unsized files read to their end too.
std::optional<std::string> read_file(const std::string& path);

// Replaces the file's contents with `text`; false when it cannot be opened
// or a write fails.
bool write_file(const std::string& path, std::string_view text);

}  // namespace dtnsim
