"""Chat-completion formalizer: HTTP client, prompt assets, transcripts.

Each formalizer step issues a single chat-completion request (system prompt =
the language guide, user prompt = the step's instructions plus the puzzle),
and extracts the first fenced code block from the reply. The request goes
through ``urllib.request`` on a connection of its own, to an http or https
endpoint only, with TLS verified against the system trust store; a redirect
is an error, not followed. The HTTP stack (``urllib.request``, ``http.client``
and ``ssl``) loads on the first request, so the offline paths (the oracle and
replay formalizers, and every command but ``bench --formalizer llm``) never
import it. Every request and reply can be appended to a JSONL transcript;
replaying a transcript through the same extraction path reproduces a pipeline
run bit for bit.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from pathlib import Path

from ..errors import ExtractionError, TransportError
from ..frontend.parser import SourceText
from ..records import Frozen
from .pipeline import ExpectedFormat

ENDPOINT_ENV = "LOGIC_AGENT_ENDPOINT"
MODEL_ENV = "LOGIC_AGENT_MODEL"
API_KEY_ENV = "LOGIC_AGENT_API_KEY"

TEMPERATURE = 0.0

@functools.cache
def _opener():
    """The opener for every request, built on the first. It turns every 3xx
    into an HTTPError: a followed redirect would carry the API key to the new
    host, and a POST turned into a GET yields no completion. Two threads that
    race here build two equal openers, which is harmless."""
    import urllib.request

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            return None

    return urllib.request.build_opener(NoRedirect)


class LlmClientConfig(Frozen):
    def __init__(self, endpoint: str, model: str, api_key: str = "", timeout: float = 120.0):
        vars(self).update(endpoint=endpoint, model=model, api_key=api_key, timeout=timeout)

    @staticmethod
    def from_env() -> "LlmClientConfig":
        endpoint = os.environ.get(ENDPOINT_ENV, "")
        model = os.environ.get(MODEL_ENV, "")
        if not endpoint or not model:
            raise TransportError(
                f"set {ENDPOINT_ENV} and {MODEL_ENV} to use the LLM formalizer"
            )
        return LlmClientConfig(endpoint, model, os.environ.get(API_KEY_ENV, ""))


class Prompts(Frozen):
    def __init__(self, language_guide: str, data_structure: str, constraints: str):
        vars(self).update(
            language_guide=language_guide, data_structure=data_structure, constraints=constraints
        )

    @staticmethod
    def load() -> "Prompts":
        from importlib import resources

        base = resources.files("logicforge.agent") / "prompts"
        return Prompts(
            (base / "language_guide.md").read_text(encoding="utf-8"),
            (base / "data_structure.md").read_text(encoding="utf-8"),
            (base / "constraints.md").read_text(encoding="utf-8"),
        )


def extract_code_block(reply: str) -> str:
    """The body of the first fenced code block in a model reply: from the
    first ``` whose info string holds no backtick and ends at a newline, up
    to the next ```. Once such a fence has no closing ```, neither has any
    later one."""
    start = reply.find("```")
    newline = -1
    while start >= 0:
        if newline < start:
            newline = reply.find("\n", start)
            if newline < 0:
                break
        if reply.find("`", start + 3, newline) < 0:
            end = reply.find("```", newline + 1)
            if end < 0:
                break
            return reply[newline + 1 : end]
        start = reply.find("```", start + 1)
    raise ExtractionError("reply contains no fenced code block")


class TranscriptWriter:
    """Appends one JSON object per formalizer exchange to a JSONL file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()

    def record(self, step: str, request: dict | None, response_text: str) -> None:
        entry = {"step": step, "request": request, "response_text": response_text}
        line = json.dumps(entry, sort_keys=True)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")


class LlmFormalizer:
    """Formalizer backed by a chat-completion HTTP endpoint."""

    def __init__(
        self,
        config: LlmClientConfig,
        prompts: Prompts | None = None,
        transcript: TranscriptWriter | None = None,
    ):
        self.config = config
        self.prompts = prompts or Prompts.load()
        self.transcript = transcript

    def gen_data_structure(self, puzzle_text: str, expected_format: ExpectedFormat) -> SourceText:
        user = self.prompts.data_structure.format(
            puzzle=puzzle_text,
            expected_format=json.dumps(expected_format.to_json_dict()),
        )
        reply, request = self._complete(user)
        if self.transcript:
            self.transcript.record("data_structure", request, reply)
        return SourceText(extract_code_block(reply), "llm:data_structure")

    def gen_constraints(self, data_structure_source: SourceText, puzzle_text: str) -> SourceText:
        user = self.prompts.constraints.format(
            data_structure=data_structure_source.text, puzzle=puzzle_text
        )
        reply, request = self._complete(user)
        if self.transcript:
            self.transcript.record("constraints", request, reply)
        return SourceText(extract_code_block(reply), "llm:constraints")

    def _complete(self, user_prompt: str) -> tuple[str, dict]:
        import http.client
        import urllib.error
        import urllib.request

        payload = {
            "model": self.config.model,
            "messages": [
                {"role": "system", "content": self.prompts.language_guide},
                {"role": "user", "content": user_prompt},
            ],
            "temperature": TEMPERATURE,
        }
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        try:
            request = urllib.request.Request(
                self.config.endpoint, data=json.dumps(payload).encode(), headers=headers
            )
            # the opener would also open file: and ftp: URLs
            if request.type not in ("http", "https"):
                raise TransportError(
                    f"request failed: endpoint scheme {request.type!r} is not http or https"
                )
            with _opener().open(request, timeout=self.config.timeout) as resp:
                status, data = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            raise TransportError(f"endpoint returned HTTP {exc.code}") from exc
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise TransportError(f"request failed: {exc}") from exc
        if status != 200:
            raise TransportError(f"endpoint returned HTTP {status}")
        try:
            body = json.loads(data)
            reply = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion response: {exc}") from exc
        if not isinstance(reply, str):
            raise TransportError(
                f"malformed completion response: content is {type(reply).__name__}, not a string"
            )
        return reply, payload


class ReplayFormalizer:
    """Serves recorded replies in order, through the normal extraction path."""

    def __init__(self, transcript_path: str | Path):
        self.entries = []
        with open(transcript_path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    self.entries.append(json.loads(line))
        self._next = 0

    def _take(self, step: str) -> str:
        if self._next >= len(self.entries):
            raise ExtractionError("transcript exhausted")
        entry = self.entries[self._next]
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("step"), str)
            and isinstance(entry.get("response_text"), str)
        ):
            raise ExtractionError(
                f"transcript entry {self._next} has no string step and response_text"
            )
        if entry["step"] != step:
            raise ExtractionError(
                f"transcript expects step {entry['step']!r}, pipeline asked for {step!r}"
            )
        self._next += 1
        return entry["response_text"]

    def gen_data_structure(self, puzzle_text: str, expected_format: ExpectedFormat) -> SourceText:
        return SourceText(extract_code_block(self._take("data_structure")), "replay:data_structure")

    def gen_constraints(self, data_structure_source: SourceText, puzzle_text: str) -> SourceText:
        return SourceText(extract_code_block(self._take("constraints")), "replay:constraints")


class RecordingFormalizer:
    """Wraps any formalizer and records its outputs as fenced transcripts."""

    def __init__(self, inner, transcript: TranscriptWriter):
        self.inner = inner
        self.transcript = transcript

    def gen_data_structure(self, puzzle_text: str, expected_format: ExpectedFormat) -> SourceText:
        out = self.inner.gen_data_structure(puzzle_text, expected_format)
        self.transcript.record("data_structure", None, f"```\n{out.text}\n```")
        return out

    def gen_constraints(self, data_structure_source: SourceText, puzzle_text: str) -> SourceText:
        out = self.inner.gen_constraints(data_structure_source, puzzle_text)
        self.transcript.record("constraints", None, f"```\n{out.text}\n```")
        return out
