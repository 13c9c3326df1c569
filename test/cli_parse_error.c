/* a parse error: the return expression stops at an operator */
int main(void) { return 1 +; }
