/* a type error: the identifier is never declared */
int main(void) { return undeclared; }
