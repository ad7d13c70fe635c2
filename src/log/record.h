// The log record data model.
//
// Each record carries the producer's local event time, the correlators injected by
// the tracing middleware (session ID + hierarchical transaction ID), the service
// and host that emitted it, the event kind (span start / span end / annotation),
// and an opaque application payload (§2.1, §3).
#ifndef SRC_LOG_RECORD_H_
#define SRC_LOG_RECORD_H_

#include <cstdint>
#include <string>

#include "src/common/time_util.h"
#include "src/log/txn_id.h"

namespace ts {

enum class EventKind : uint8_t {
  kSpanStart = 0,
  kSpanEnd = 1,
  kAnnotation = 2,
};

const char* EventKindName(EventKind kind);

struct LogRecord {
  EventTime time = 0;       // Producer-local event time, ns since trace origin.
  std::string session_id;   // Correlator assigned at request entry.
  TxnId txn_id;             // Hierarchical position within the session.
  uint32_t service = 0;     // Emitting service instance.
  uint32_t host = 0;        // Emitting machine.
  EventKind kind = EventKind::kAnnotation;
  std::string payload;      // Application-specific fields, opaque to TS.

  // Approximate in-memory footprint, used by buffer accounting (Figure 8):
  // the struct plus the heap bytes it owns. The strings count their
  // capacity; the id counts its heap array, which is zero bytes for an id
  // stored inline (TxnId::kInlineCapacity components or fewer).
  size_t MemoryFootprint() const {
    return sizeof(LogRecord) + session_id.capacity() + payload.capacity() +
           txn_id.HeapBytes();
  }
};

// Session identifiers route records through the Exchange PACT; the paper applies
// SipHash-2-4 to the session ID (§4.2).
uint64_t SessionHash(const std::string& session_id);

}  // namespace ts

#endif  // SRC_LOG_RECORD_H_
