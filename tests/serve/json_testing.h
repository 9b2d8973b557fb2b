// Test helper: checks that text is one complete JSON value with the serve
// layer's strict parser, reporting the parser's error (with its byte offset)
// on failure.

#ifndef TESTS_SERVE_JSON_TESTING_H_
#define TESTS_SERVE_JSON_TESTING_H_

#include <gtest/gtest.h>

#include <string>

#include "src/serve/jsonv.h"

namespace affsched {

inline ::testing::AssertionResult ParsesAsJson(const std::string& text) {
  JsonValue doc;
  std::string error;
  if (ParseJson(text, &doc, &error)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << error;
}

}  // namespace affsched

#endif  // TESTS_SERVE_JSON_TESTING_H_
