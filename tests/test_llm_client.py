"""LLM formalizer against a local stub chat-completion server."""

import json
import re
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logicforge.agent import ExpectedFormat, PipelineConfig, PipelineStatus, run_pipeline
from logicforge.agent.llm import (
    LlmClientConfig,
    LlmFormalizer,
    Prompts,
    ReplayFormalizer,
    TranscriptWriter,
    extract_code_block,
)
from logicforge.bench import GenSpec, generate_tasks, run_bench
from logicforge.errors import ExtractionError, TransportError
from logicforge.frontend.parser import SourceText

FMT = ExpectedFormat(("house", "name"), position="house")

FIG_BLOCK = (
    "class House:\n"
    "    house_number: Unique[Domain[int, range(1, 7)]]\n"
    '    name: Unique[Domain[str, "Alice", "Eric"]]\n'
    "\n"
    "class PuzzleSolution:\n"
    "    houses: list[House, 6]\n"
)


class _StubHandler(BaseHTTPRequestHandler):
    """Each reply is (status, content): content as a completion's message, or
    bytes sent as the raw body; a status of None closes the connection
    without a reply."""

    replies: list = []
    requests: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length))
        type(self).requests.append(
            {"payload": body, "auth": self.headers.get("Authorization")}
        )
        status, reply = type(self).replies.pop(0)
        if status is None:
            self.close_connection = True
            return
        if isinstance(reply, bytes):
            data = reply
        else:
            data = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": reply}}]}
            ).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    _StubHandler.replies = []
    _StubHandler.requests = []
    server = _serve(_StubHandler)
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions", _StubHandler
    server.shutdown()
    server.server_close()


def make_formalizer(endpoint, **kwargs) -> LlmFormalizer:
    config = LlmClientConfig(endpoint=endpoint, model="test-model", api_key="sk-test", **kwargs)
    prompts = Prompts(
        language_guide="guide text",
        data_structure="DS for {puzzle} as {expected_format}",
        constraints="constraints for {data_structure} and {puzzle}",
    )
    return LlmFormalizer(config, prompts)


# The fence pattern that extract_code_block's search replaces: the reference
# it must agree with on every reply.
_FENCE_RE = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)
_REPLY_PIECES = ("```", "````", "`", "\n", "\r\n", "python", " ", "x = 1", "``")


class TestExtraction:
    def test_fenced_block_extracted(self):
        reply = f"Sure, here you go:\n```python\n{FIG_BLOCK}```\nHope that helps."
        assert extract_code_block(reply) == FIG_BLOCK

    def test_prose_without_fences_raises(self):
        with pytest.raises(ExtractionError):
            extract_code_block("I could not produce any code, sorry.")

    def test_first_of_two_blocks_is_used(self):
        reply = f"```\n{FIG_BLOCK}```\nand also\n```\nsecond block\n```"
        assert extract_code_block(reply) == FIG_BLOCK

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(_REPLY_PIECES), max_size=12).map("".join))
    @example("````python\nx = 1\n````")  # four backticks
    @example("```py`thon\nx\n```\n```\ny\n```")  # a backtick in the info string
    @example("prose\n```python\nunterminated")
    @example("```\n```")  # empty
    @example("```a\r\nx\r\n```\r\n```b\r\ny```")  # two blocks, CRLF
    def test_matches_the_fence_pattern(self, reply):
        # the first block as the regular expression the search replaced finds it
        match = _FENCE_RE.search(reply)
        if match is None:
            with pytest.raises(ExtractionError):
                extract_code_block(reply)
        else:
            assert extract_code_block(reply) == match.group(1)


class TestClient:
    def test_data_structure_request_and_reply(self, stub_server):
        endpoint, handler = stub_server
        handler.replies.append((200, f"```\n{FIG_BLOCK}```"))
        formalizer = make_formalizer(endpoint)
        out = formalizer.gen_data_structure("some puzzle", FMT)
        assert isinstance(out, SourceText)
        assert out.text == FIG_BLOCK
        request = handler.requests[0]
        assert request["auth"] == "Bearer sk-test"
        payload = request["payload"]
        assert payload["model"] == "test-model"
        assert payload["temperature"] == 0.0
        assert payload["messages"][0]["role"] == "system"
        assert payload["messages"][0]["content"] == "guide text"
        assert "some puzzle" in payload["messages"][1]["content"]

    def test_constraints_request_carries_data_structure(self, stub_server):
        endpoint, handler = stub_server
        handler.replies.append((200, "```\ndef validate(s: S) -> None:\n    assert s.x == 1\n```"))
        formalizer = make_formalizer(endpoint)
        out = formalizer.gen_constraints(SourceText(FIG_BLOCK, "prior"), "the puzzle")
        assert "def validate" in out.text
        content = handler.requests[0]["payload"]["messages"][1]["content"]
        assert FIG_BLOCK in content and "the puzzle" in content

    def test_two_block_reply_uses_the_first(self, stub_server):
        endpoint, handler = stub_server
        handler.replies.append(
            (200, f"First attempt:\n```\n{FIG_BLOCK}```\nAlternative:\n```\nclass Bad:\n    pass\n```")
        )
        out = make_formalizer(endpoint).gen_data_structure("p", FMT)
        assert out.text == FIG_BLOCK

    def test_no_code_block_is_extraction_error(self, stub_server):
        endpoint, handler = stub_server
        handler.replies.append((200, "no code here"))
        with pytest.raises(ExtractionError):
            make_formalizer(endpoint).gen_data_structure("p", FMT)

    def test_http_error_is_transport_error(self, stub_server):
        endpoint, handler = stub_server
        handler.replies.append((500, "boom"))
        with pytest.raises(TransportError):
            make_formalizer(endpoint).gen_data_structure("p", FMT)

    def test_unreachable_endpoint_is_transport_error(self):
        formalizer = make_formalizer("http://127.0.0.1:1/nowhere", timeout=0.2)
        with pytest.raises(TransportError):
            formalizer.gen_data_structure("p", FMT)

    def test_transcript_records_request_and_reply(self, stub_server, tmp_path):
        endpoint, handler = stub_server
        handler.replies.append((200, f"```\n{FIG_BLOCK}```"))
        path = tmp_path / "t.jsonl"
        formalizer = make_formalizer(endpoint)
        formalizer.transcript = TranscriptWriter(path)
        formalizer.gen_data_structure("some puzzle", FMT)
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(entries) == 1
        assert entries[0]["step"] == "data_structure"
        assert entries[0]["request"]["model"] == "test-model"
        assert FIG_BLOCK in entries[0]["response_text"]


class TestTransportFailures:
    """Each class of HTTP failure is a TransportError, never a reply."""

    @pytest.mark.parametrize(
        "status, reply, message",
        [
            (201, f"```\n{FIG_BLOCK}```", "endpoint returned HTTP 201"),
            (200, b"not json", "malformed completion response"),
            (200, b'{"id": "x"}', "malformed completion response"),
            (None, None, "request failed"),
            (200, None, "malformed completion response"),
            (200, ["text"], "malformed completion response"),
        ],
        ids=[
            "status-201", "body-not-json", "no-choices", "closed-without-reply",
            "content-null", "content-list",
        ],
    )
    def test_stub_reply_is_transport_error(self, stub_server, status, reply, message):
        endpoint, handler = stub_server
        handler.replies.append((status, reply))
        with pytest.raises(TransportError, match=message):
            make_formalizer(endpoint).gen_data_structure("p", FMT)
        assert len(handler.requests) == 1

    def test_file_endpoint_is_transport_error(self, tmp_path):
        path = tmp_path / "completion.json"
        path.write_text(
            json.dumps({"choices": [{"message": {"content": f"```\n{FIG_BLOCK}```"}}]})
        )
        with pytest.raises(TransportError, match="request failed"):
            make_formalizer(path.as_uri()).gen_data_structure("p", FMT)

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_not_followed(self, status):
        """A redirect is an error: the API key never reaches the target."""
        _CompletionTarget.seen = []
        target = _serve(_CompletionTarget)
        target_url = f"http://127.0.0.1:{target.server_port}/v1/chat/completions"
        redirect = _serve(_redirect_handler(status, target_url))
        try:
            endpoint = f"http://127.0.0.1:{redirect.server_port}/v1/chat/completions"
            with pytest.raises(TransportError, match=f"endpoint returned HTTP {status}"):
                make_formalizer(endpoint).gen_data_structure("p", FMT)
        finally:
            for server in (redirect, target):
                server.shutdown()
                server.server_close()
        assert _CompletionTarget.seen == []


def _serve(handler_cls) -> HTTPServer:
    """A server on a free local port, run by a daemon thread. It polls for
    ``shutdown()`` every 10 ms, not every 0.5 s as ``serve_forever`` does by
    default, so a test does not wait up to half a second per server."""
    server = HTTPServer(("127.0.0.1", 0), handler_cls)
    poll = {"poll_interval": 0.01}
    threading.Thread(target=server.serve_forever, kwargs=poll, daemon=True).start()
    return server


def _redirect_handler(status: int, location: str):
    class Redirect(BaseHTTPRequestHandler):
        def do_POST(self):
            self.send_response(status)
            self.send_header("Location", location)
            self.send_header("Content-Length", "0")
            self.end_headers()

        def log_message(self, *args):
            pass

    return Redirect


class _CompletionTarget(BaseHTTPRequestHandler):
    """Records every request, whatever its method, and answers a completion."""

    seen: list = []

    def _answer(self):
        type(self).seen.append((self.command, self.headers.get("Authorization")))
        data = json.dumps({"choices": [{"message": {"content": f"```\n{FIG_BLOCK}```"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST = _answer

    def log_message(self, *args):
        pass


def test_agent_and_cli_import_no_http_package_nor_dataclasses():
    """The client speaks HTTP through the standard library alone, and loads
    that stack only when it sends a request: importing the package and
    solving offline load none of it. Nor do they load ``dataclasses`` or
    ``inspect``: the value classes are plain ``Record`` subclasses, so a cold
    start builds no class by generating and ``exec``-ing method source."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    zebra = str(Path(__file__).resolve().parent / "data" / "zebra_4x4.lpy")
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import logicforge, logicforge.agent, logicforge.bench, logicforge.cli\n"
        "assert logicforge.cli.main(['solve', sys.argv[1]]) == 0\n"
        "stack = {'http.client', 'urllib.request', 'urllib.error', 'ssl', 'email', 'logging',\n"
        "         'concurrent.futures', 'importlib.resources', 'requests', 'dataclasses',\n"
        "         'inspect'}\n"
        "print('loaded:', sorted(stack & (set(sys.modules) - before)))\n"
        "from logicforge.agent import ExpectedFormat, LlmClientConfig, LlmFormalizer, Prompts\n"
        "from logicforge.errors import TransportError\n"
        "config = LlmClientConfig('http://127.0.0.1:9/v1/chat/completions', 'any', timeout=5)\n"
        "formalizer = LlmFormalizer(config, Prompts('guide', '{puzzle} {expected_format}', ''))\n"
        "try:\n"
        "    formalizer.gen_data_structure('p', ExpectedFormat(('a',)))\n"
        "except TransportError as exc:\n"
        "    print('TransportError:', exc)\n"
    )
    # -S leaves site-packages off the path, so only src and the standard
    # library can be imported
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, zebra],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[-2] == "loaded: []"
    assert lines[-1].startswith("TransportError: request failed: ")


@pytest.fixture(scope="module")
def two_tasks():
    return generate_tasks(GenSpec(seed=5, shapes=(("2x3", 2),)))


class TestFormalizerFailures:
    """A formalizer that yields no program ends the attempt FailedFormalize,
    not FailedSyntax, and the bench still scores the task and writes its
    report."""

    def test_http_error_fails_formalize(self, stub_server, two_tasks, tmp_path):
        endpoint, handler = stub_server
        config = PipelineConfig(max_attempts=2)
        handler.replies.extend([(500, "boom")] * config.max_attempts * len(two_tasks))
        out = tmp_path / "report.json"
        report = run_bench(
            two_tasks, lambda task: make_formalizer(endpoint), concurrency=1, out_path=out, config=config
        )
        assert report.status_counts == {"FailedFormalize": len(two_tasks)}
        assert len(handler.requests) == config.max_attempts * len(two_tasks)
        assert json.loads(out.read_text())["status_counts"] == {"FailedFormalize": len(two_tasks)}

    def test_exhausted_transcript_fails_formalize(self, two_tasks, tmp_path):
        transcript = tmp_path / "empty.jsonl"
        transcript.write_text("")
        task = two_tasks[0]
        result = run_pipeline(task.text, task.fmt, ReplayFormalizer(transcript))
        assert result.status is PipelineStatus.FAILED_FORMALIZE
        assert result.log == [("formalize", "transcript exhausted")] * PipelineConfig().max_attempts
        out = tmp_path / "report.json"
        report = run_bench(two_tasks, lambda task: ReplayFormalizer(transcript), concurrency=2, out_path=out)
        assert report.status_counts == {"FailedFormalize": len(two_tasks)}
        assert out.exists()

    @pytest.mark.parametrize(
        "entry",
        [
            {"step": "data_structure"},
            {"response_text": f"```\n{FIG_BLOCK}```"},
            {"step": "data_structure", "response_text": None},
            {"step": 1, "response_text": f"```\n{FIG_BLOCK}```"},
            ["data_structure", f"```\n{FIG_BLOCK}```"],
        ],
        ids=["no-response-text", "no-step", "response-text-null", "step-not-string", "not-an-object"],
    )
    def test_malformed_transcript_entry_fails_formalize(self, two_tasks, tmp_path, entry):
        transcript = tmp_path / "bad.jsonl"
        transcript.write_text("\n" + json.dumps(entry) + "\n")
        task = two_tasks[0]
        config = PipelineConfig(max_attempts=2)
        result = run_pipeline(task.text, task.fmt, ReplayFormalizer(transcript), config)
        assert result.status is PipelineStatus.FAILED_FORMALIZE
        message = "transcript entry 0 has no string step and response_text"
        assert result.log == [("formalize", message)] * config.max_attempts


class TestPromptAssets:
    def test_packaged_prompts_load_with_placeholders(self):
        prompts = Prompts.load()
        assert "nondet" in prompts.language_guide
        assert "{puzzle}" in prompts.data_structure
        assert "{expected_format}" in prompts.data_structure
        assert "{data_structure}" in prompts.constraints
        assert "{puzzle}" in prompts.constraints
        # zero-shot: no worked puzzle embedded in any prompt
        for text in (prompts.language_guide, prompts.data_structure, prompts.constraints):
            assert "house_number" not in text


class TestEnvConfig:
    def test_missing_env_is_transport_error(self, monkeypatch):
        monkeypatch.delenv("LOGIC_AGENT_ENDPOINT", raising=False)
        monkeypatch.delenv("LOGIC_AGENT_MODEL", raising=False)
        with pytest.raises(TransportError):
            LlmClientConfig.from_env()

    def test_env_variables_read(self, monkeypatch):
        monkeypatch.setenv("LOGIC_AGENT_ENDPOINT", "http://example.invalid/v1")
        monkeypatch.setenv("LOGIC_AGENT_MODEL", "m1")
        monkeypatch.setenv("LOGIC_AGENT_API_KEY", "k1")
        config = LlmClientConfig.from_env()
        assert (config.endpoint, config.model, config.api_key) == (
            "http://example.invalid/v1",
            "m1",
            "k1",
        )
