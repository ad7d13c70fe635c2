// One line per session, "id#fragment first..last@closed_at: payload@time ...":
// the form in which the online/offline suites compare whole sessions, record
// for record.
#ifndef TESTS_CANONICAL_SESSION_H_
#define TESTS_CANONICAL_SESSION_H_

#include <string>

#include "src/core/session.h"

namespace ts {

inline std::string Canonical(const Session& s) {
  std::string line = s.id + "#" + std::to_string(s.fragment_index) + " " +
                     std::to_string(s.first_epoch) + ".." +
                     std::to_string(s.last_epoch) + "@" +
                     std::to_string(s.closed_at) + ":";
  for (const auto& r : s.records) {
    line += " " + r.payload + "@" + std::to_string(r.time);
  }
  return line;
}

}  // namespace ts

#endif  // TESTS_CANONICAL_SESSION_H_
