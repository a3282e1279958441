"""Protocol layer: codec canonicality, request validation, views."""

import json

import pytest

from repro.core.assistant import AssistantResponse
from repro.core.chat import ChatTurn
from repro.core.nl2sql import Nl2SqlPrediction
from repro.serve.protocol import (
    AskRequest,
    CreateSessionRequest,
    FeedbackRequest,
    ProtocolError,
    answer_view,
    error_payload,
    json_decode,
    json_encode,
    turn_view,
)
from repro.sql.engine import QueryResult


class TestCodec:
    def test_roundtrip(self):
        payload = {"b": 1, "a": {"nested": [1, 2, None]}}
        assert json_decode(json_encode(payload)) == payload

    def test_canonical_key_order(self):
        a = json_encode({"z": 1, "a": 2})
        b = json_encode({"a": 2, "z": 1})
        assert a == b
        assert a == b'{"a":2,"z":1}'

    def test_decode_rejects_empty(self):
        with pytest.raises(ProtocolError) as excinfo:
            json_decode(b"")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_json"

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError) as excinfo:
            json_decode(b"{not json")
        assert excinfo.value.code == "invalid_json"

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError) as excinfo:
            json_decode(b"[1,2,3]")
        assert excinfo.value.code == "invalid_json"


class TestRequestValidation:
    def test_create_session_defaults(self):
        request = CreateSessionRequest.from_payload({"db": "aep"})
        assert request.tenant == "default"
        assert request.routing is True

    def test_create_session_full(self):
        request = CreateSessionRequest.from_payload(
            {"db": "aep", "tenant": "team-a", "routing": False}
        )
        assert (request.db, request.tenant, request.routing) == (
            "aep",
            "team-a",
            False,
        )

    def test_missing_required_field(self):
        with pytest.raises(ProtocolError) as excinfo:
            CreateSessionRequest.from_payload({})
        error = excinfo.value
        assert error.status == 400
        assert error.code == "invalid_request"
        assert error.detail["field"] == "db"

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            AskRequest.from_payload({"question": "q", "bogus": 1})
        assert excinfo.value.detail["fields"] == ["bogus"]

    def test_wrong_type_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            AskRequest.from_payload({"question": 42})
        assert "must be str" in str(excinfo.value)

    def test_bool_is_not_a_string(self):
        with pytest.raises(ProtocolError):
            CreateSessionRequest.from_payload({"db": True})

    def test_empty_string_rejected(self):
        with pytest.raises(ProtocolError):
            AskRequest.from_payload({"question": "   "})

    def test_feedback_highlight_optional(self):
        request = FeedbackRequest.from_payload({"feedback": "fix it"})
        assert request.highlight is None
        request = FeedbackRequest.from_payload(
            {"feedback": "fix it", "highlight": "WHERE x = 1"}
        )
        assert request.highlight == "WHERE x = 1"

    def test_feedback_highlight_type_checked(self):
        with pytest.raises(ProtocolError):
            FeedbackRequest.from_payload({"feedback": "f", "highlight": 3})


class TestViews:
    def _response(self, with_result: bool) -> AssistantResponse:
        result = (
            QueryResult(columns=["n"], rows=[(3,)]) if with_result else None
        )
        return AssistantResponse(
            question="how many?",
            prediction=Nl2SqlPrediction(sql="SELECT COUNT(*) FROM t"),
            result=result,
            reformulation="Finds the count of the t records.",
            explanation="- count the rows.",
            error=None if with_result else "the generated SQL could not be parsed",
        )

    def test_answer_view_with_result(self):
        view = answer_view(self._response(with_result=True))
        assert view["sql"] == "SELECT COUNT(*) FROM t"
        assert view["result"] == {"columns": ["n"], "rows": [[3]]}
        assert view["error"] is None
        assert view["text"]
        json.loads(json_encode(view))  # JSON-serializable end to end

    def test_answer_view_with_error(self):
        view = answer_view(self._response(with_result=False))
        assert view["result"] is None
        assert "could not be parsed" in view["error"]

    def test_turn_view(self):
        turn = ChatTurn(role="user", text="hi", highlight="x = 1")
        assert turn_view(turn) == {
            "role": "user",
            "text": "hi",
            "sql": None,
            "highlight": "x = 1",
        }

    def test_error_payload_shape(self):
        payload = error_payload("capacity", "full", limit=4)
        assert payload == {
            "error": {"code": "capacity", "message": "full", "limit": 4}
        }

    def test_protocol_error_payload(self):
        error = ProtocolError(404, "unknown_db", "nope", {"db": "x"})
        assert error.payload() == {
            "error": {"code": "unknown_db", "message": "nope", "db": "x"}
        }
