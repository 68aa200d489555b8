"""LLM formalizer against a local stub chat-completion server."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

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
    replies: list = []
    requests: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length))
        type(self).requests.append(
            {"payload": body, "auth": self.headers.get("Authorization")}
        )
        status, reply = type(self).replies.pop(0)
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
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions", _StubHandler
    server.shutdown()


def make_formalizer(endpoint, **kwargs) -> LlmFormalizer:
    config = LlmClientConfig(endpoint=endpoint, model="test-model", api_key="sk-test", **kwargs)
    prompts = Prompts(
        language_guide="guide text",
        data_structure="DS for {puzzle} as {expected_format}",
        constraints="constraints for {data_structure} and {puzzle}",
    )
    return LlmFormalizer(config, prompts)


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
